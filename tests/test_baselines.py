import dataclasses

import numpy as np
import pytest

from lifelong.baselines import ablation_hyper, run_stl
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import HyperParams, init_state, learn_task
from lifelong.libraries import init_libraries
from lifelong.metrics import rmse
from lifelong.tasks import fit_single_task


def corpus_pair(seed=0, **kw):
    params = dict(clusters=2, tasks_per_cluster=3, d=10, n_per_task=16,
                  noise_std=0.05)
    params.update(kw)
    corpus = generate_disjoint(seed=seed, **params)
    train, test = split_corpus(corpus, 0.5, seed=seed)
    return standardize_targets(train, test)


class TestStl:
    def test_delegates_to_single_task_fit(self):
        train, _ = corpus_pair()
        weights = run_stl(train, ridge=0.3)
        for task in train.tasks:
            np.testing.assert_array_equal(weights[task.task_id],
                                          fit_single_task(task, 0.3).w)

    def test_noiseless_task_interpolates(self):
        corpus = generate_disjoint(seed=1, clusters=1, tasks_per_cluster=1,
                                   d=12, n_per_task=40, noise_std=0.0)
        weights = run_stl(corpus, ridge=0.0)
        task = corpus.tasks[0]
        assert rmse(task.features.T @ weights[task.task_id], task.targets) <= 1e-6


class TestAblation:
    def test_no_representatives_beyond_first(self):
        train, _ = corpus_pair(clusters=3, d=12)
        state = init_state(ablation_hyper(HyperParams(p=6)), seed=0)
        outcomes = []
        for task in train.tasks:
            state, outcome = learn_task(state, task)
            outcomes.append(outcome)
        assert len(state.mlib) == 1
        assert [o.admitted for o in outcomes] == [True] + [False] * (len(outcomes) - 1)

    def test_hyper_is_degenerate_config_of_engine(self):
        hyper = HyperParams(p=6, lambda2=0.7)
        abl = ablation_hyper(hyper)
        assert abl.lambda2 == 0.0
        assert not abl.admission_enabled
        assert abl.lambda1 == hyper.lambda1 and abl.p == hyper.p

    def test_identity_dictionary_closed_form_codes(self, rng):
        # lambda1 = lambda2 = 0 with square identity libraries: the code
        # solve reduces to (omega + I) s = omega w + L w
        train, _ = corpus_pair(clusters=1, tasks_per_cluster=1, d=6, n_per_task=30)
        task = train.tasks[0]
        d = task.dim
        hyper = HyperParams(p=d, lambda1=0.0, lambda2=0.0, admission_enabled=False,
                            coder_tol=1e-10, coder_max_iter=50000)
        state = init_state(hyper, seed=0)
        flib = init_libraries(d, d, seed=0)
        flib = dataclasses.replace(flib, decoder=np.eye(d), encoder=np.eye(d))
        state = dataclasses.replace(state, flib=flib)
        state, out = learn_task(state, task)
        single = fit_single_task(task, hyper.ridge)
        expected = np.linalg.solve(single.omega + np.eye(d),
                                   single.omega @ single.w + single.w)
        assert np.abs(out.code - expected).max() <= 1e-6


class TestFullEngineRun:
    def test_runs_and_orders_preserved(self):
        train, _ = corpus_pair()
        state = init_state(HyperParams(p=5), seed=0)
        outcomes = []
        for task in train.tasks:
            state, outcome = learn_task(state, task)
            outcomes.append(outcome)
        assert [o.task_id for o in outcomes] == [t.task_id for t in train.tasks]
        assert state.n_tasks == len(train.tasks)
