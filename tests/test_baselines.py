import dataclasses

import numpy as np
import pytest

from lifelong.baselines import ablation_hyper, run_stl
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import HyperParams, init_state, learn_task, predict
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

    def test_only_nonzero_codes_arriving_to_an_empty_library_are_admitted(self, rng):
        # at lambda2 = 0 the model library moves no code and no refit, so a
        # run that empties it before every arrival learns the same codes,
        # decoders and predictions.  There every arrival meets a library
        # whose only slot is the outlier, and is admitted exactly when its
        # code is nonzero: a task with all-zero targets fits w = 0 and gets
        # the zero code, and the next task is admitted again
        train, _ = corpus_pair(clusters=3, d=12)
        zero = dataclasses.replace(train.tasks[1], targets=np.zeros(train.tasks[1].n_samples))
        tasks = [train.tasks[0], zero, *train.tasks[2:]]
        hyper = ablation_hyper(HyperParams(p=6))
        kept, emptied = init_state(hyper, seed=0), init_state(hyper, seed=0)
        kept_admitted, emptied_admitted = [], []
        for task in tasks:
            kept, outcome = learn_task(kept, task)
            emptied, alone = learn_task(dataclasses.replace(emptied, mlib=()), task)
            kept_admitted.append(outcome.admitted)
            emptied_admitted.append(alone.admitted)
            assert outcome.code.tobytes() == alone.code.tobytes()
            assert kept.flib.decoder.tobytes() == emptied.flib.decoder.tobytes()
        assert not kept.per_task[zero.task_id].code.any()
        assert kept_admitted == [True] + [False] * (len(tasks) - 1)
        assert emptied_admitted == [True, False] + [True] * (len(tasks) - 2)
        X = rng.normal(size=(12, 5))
        for task in tasks:
            assert (predict(kept, task.task_id, X).tobytes()
                    == predict(emptied, task.task_id, X).tobytes())

    def test_hyper_is_degenerate_config_of_engine(self):
        hyper = HyperParams(p=6, lambda2=0.7)
        abl = ablation_hyper(hyper)
        assert abl == dataclasses.replace(hyper, lambda2=0.0)

    def test_identity_dictionary_closed_form_codes(self, rng):
        # lambda1 = lambda2 = 0 with square identity libraries: the code
        # solve reduces to (omega + I) s = omega w + L w
        train, _ = corpus_pair(clusters=1, tasks_per_cluster=1, d=6, n_per_task=30)
        task = train.tasks[0]
        d = task.dim
        hyper = HyperParams(p=d, lambda1=0.0, lambda2=0.0)
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
