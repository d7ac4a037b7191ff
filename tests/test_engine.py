import builtins
import dataclasses
import errno
import io
import json

import numpy as np
import pytest

from lifelong import engine
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import (HyperParams, activation_pair, init_state,
                             learn_task, load_state, predict, predict_labels,
                             reconstruct_model, reconstructed_weights,
                             save_state)
from lifelong.experiment import ExperimentConfig
from lifelong.libraries import init_libraries
from lifelong.sparse_code import CodeProblem, encode_task
from lifelong.tasks import TaskData, fit_single_task, loss_value


def small_corpus(seed=0, clusters=2, tasks_per_cluster=3, d=10, n=16, noise=0.05):
    corpus = generate_disjoint(seed=seed, clusters=clusters,
                               tasks_per_cluster=tasks_per_cluster, d=d,
                               n_per_task=n, noise_std=noise)
    train, test = split_corpus(corpus, 0.5, seed=seed)
    return standardize_targets(train, test)


def small_hyper(**overrides):
    base = dict(p=5, lambda1=0.01, lambda2=0.5, alpha=0.05, gamma=0.5)
    base.update(overrides)
    return HyperParams(**base)


def stream(state, tasks):
    outcomes = []
    for t in tasks:
        state, out = learn_task(state, t)
        outcomes.append(out)
    return state, outcomes


class TestSingleTask:
    def test_base_case(self):
        train, _ = small_corpus()
        state = init_state(small_hyper(), seed=0)
        state, out = learn_task(state, train.tasks[0])
        assert len(state.mlib) == 1
        assert out.admitted
        assert list(state.per_task) == [train.tasks[0].task_id]
        w = state.per_task[train.tasks[0].task_id].single.w
        recon = reconstruct_model(state, train.tasks[0].task_id)
        diff = w - recon
        err = float(diff @ (state.per_task[train.tasks[0].task_id].single.omega @ diff))
        assert np.isfinite(err)

    def test_train_rmse_close_to_ridge_fit(self):
        # well-determined task (n > d) so the single-task fit recovers the
        # exact linear ground truth at unit scale
        train, _ = small_corpus(clusters=1, tasks_per_cluster=1, d=10, n=60,
                                noise=0.01)
        task = train.tasks[0]
        hp = small_hyper(lambda1=1e-6, lambda2=1e-6, mu=1e-9)
        state, _ = learn_task(init_state(hp, seed=0), task)
        scores = predict(state, task.task_id, task.features)
        engine_rmse = float(np.sqrt(np.mean((scores - task.targets) ** 2)))
        w = fit_single_task(task, hp.ridge).w
        ridge_rmse = float(np.sqrt(np.mean((task.features.T @ w - task.targets) ** 2)))
        assert engine_rmse <= ridge_rmse + 0.05


class TestPredict:
    def test_zero_input_scores(self):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        tid = train.tasks[0].task_id
        np.testing.assert_array_equal(predict(state, tid, np.zeros((10, 4))), np.zeros(4))

    def test_consistent_with_reconstruction(self, rng):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        tid = train.tasks[1].task_id
        X = rng.normal(size=(10, 7))
        np.testing.assert_array_equal(predict(state, tid, X),
                                      X.T @ reconstruct_model(state, tid))

    def test_unknown_task_rejected(self):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:1])
        with pytest.raises(KeyError):
            predict(state, "nope", np.zeros((10, 1)))

    def test_reverse_transfer_changes_scores(self, rng):
        train, _ = small_corpus()
        tid = train.tasks[0].task_id
        X = rng.normal(size=(10, 5))
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:1])
        early = predict(state, tid, X)
        state, _ = stream(state, train.tasks[1:5])
        late = predict(state, tid, X)
        # the decoder kept moving, so the task-1 view must move with it
        assert not np.allclose(early, late)

    def test_labels_for_classification_only(self):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:1])
        with pytest.raises(ValueError, match="classification"):
            predict_labels(state, train.tasks[0].task_id, np.zeros((10, 2)))


class TestReconstruct:
    def test_identity_decoder_returns_code(self):
        train, _ = small_corpus()
        hp = small_hyper(p=10)
        state, _ = stream(init_state(hp, seed=0), train.tasks[:1])
        flib = dataclasses.replace(state.flib, decoder=np.eye(10))
        state = dataclasses.replace(state, flib=flib)
        tid = train.tasks[0].task_id
        np.testing.assert_array_equal(reconstruct_model(state, tid),
                                      state.per_task[tid].code)


class TestAlternation:
    def test_objective_trace_non_increasing(self):
        train, _ = small_corpus(tasks_per_cluster=4)
        state, outcomes = stream(init_state(small_hyper(), seed=0), train.tasks)
        for out in outcomes:
            trace = np.array(out.objective_trace)
            slack = 1e-7 * np.maximum(1.0, np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= slack), out.task_id

    def test_duplicate_task_converges_fast_no_new_rep(self):
        train, _ = small_corpus()
        first = train.tasks[0]
        twin = dataclasses.replace(first, task_id="twin")
        state, _ = stream(init_state(small_hyper(), seed=0), [first])
        k_before = len(state.mlib)
        state, out = learn_task(state, twin)
        assert out.rounds <= 2
        assert not out.admitted
        assert len(state.mlib) == k_before

    def test_representative_count_non_decreasing(self):
        train, _ = small_corpus(clusters=3, tasks_per_cluster=3, d=12)
        state = init_state(small_hyper(), seed=1)
        counts = []
        for task in train.tasks:
            state, out = learn_task(state, task)
            counts.append(out.reps_total)
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestDeterminism:
    def test_identical_runs_identical_states(self):
        train, _ = small_corpus()
        s1, o1 = stream(init_state(small_hyper(), seed=3), train.tasks)
        s2, o2 = stream(init_state(small_hyper(), seed=3), train.tasks)
        np.testing.assert_array_equal(s1.flib.decoder, s2.flib.decoder)
        np.testing.assert_array_equal(s1.flib.encoder, s2.flib.encoder)
        assert len(s1.mlib) == len(s2.mlib)
        for a, b in zip(o1, o2):
            np.testing.assert_array_equal(a.code, b.code)
            assert a.objective_trace == b.objective_trace


class TestAblationPath:
    def test_matches_pure_sparse_coding(self):
        train, _ = small_corpus()
        hp = small_hyper(lambda2=0.0, admission_enabled=False)
        state = init_state(hp, seed=0)
        phi, _ = activation_pair(hp.phi)
        for task in train.tasks:
            # independent reference: encode against the pre-update library
            flib = state.flib if state.flib is not None else init_libraries(
                task.dim, hp.p, state.seed)
            single = fit_single_task(task, hp.ridge)
            prob = CodeProblem(w=single.w, omega=single.omega, decoder=flib.decoder,
                               encoder_image=phi(flib.encoder @ single.w),
                               reps=(), lambda1=hp.lambda1, lambda2=0.0)
            expected = encode_task(prob, tol=hp.coder_tol, max_iter=hp.coder_max_iter)
            state, out = learn_task(state, task)
            assert np.abs(out.code - expected).max() <= 1e-6
        assert len(state.mlib) == 1

    def test_alternation_settles_on_slot_zero(self):
        # with lambda2 = 0 every slot costs nothing, so the assignment is the
        # lowest-index vertex and the second round is an exact fixed point
        train, _ = small_corpus()
        hp = small_hyper(lambda2=0.0, admission_enabled=False)
        state, outcomes = stream(init_state(hp, seed=0), train.tasks)
        for out in outcomes[1:]:
            np.testing.assert_array_equal(out.assignment.z, [1.0, 0.0])
            assert out.rounds == 2
            assert len(out.distances) == 1 and np.isfinite(out.outlier_cost)

    def test_no_admissions_beyond_first(self):
        train, _ = small_corpus(clusters=3, tasks_per_cluster=3, d=12)
        hp = small_hyper(lambda2=0.0, admission_enabled=False)
        state, outcomes = stream(init_state(hp, seed=0), train.tasks)
        assert [o.admitted for o in outcomes] == [True] + [False] * (len(outcomes) - 1)


class TestRelearn:
    def test_seen_task_appends_data(self):
        train, _ = small_corpus()
        task = train.tasks[0]
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        n_before = state.per_task[task.task_id].data.n_samples
        tasks_seen = state.flib.tasks_seen
        state, out = learn_task(state, task)
        assert state.per_task[task.task_id].data.n_samples == 2 * n_before
        # a relearn event contributes to the accumulators like any arrival
        assert state.flib.tasks_seen == tasks_seen + 1

    def test_incompatible_relearn_rejected(self):
        train, _ = small_corpus()
        task = train.tasks[0]
        state, _ = stream(init_state(small_hyper(), seed=0), [task])
        bad = TaskData(features=np.ones((10, 3)), targets=np.array([1.0, -1.0, 1.0]),
                       loss_kind="logistic", task_id=task.task_id)
        with pytest.raises(ValueError, match=task.task_id):
            learn_task(state, bad)

    def test_restored_task_refused_new_task_learned(self, tmp_path):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        seen = train.tasks[0]
        with pytest.raises(ValueError, match=f"{seen.task_id}.*no raw task data"):
            learn_task(loaded, seen)
        new = train.tasks[3]
        resumed, out = learn_task(loaded, new)
        assert list(resumed.per_task)[-1] == new.task_id
        np.testing.assert_array_equal(resumed.per_task[new.task_id].data.features,
                                      new.features)
        assert resumed.flib.tasks_seen == state.flib.tasks_seen + 1


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path, rng):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        X = rng.normal(size=(10, 6))
        for task in train.tasks[:4]:
            np.testing.assert_array_equal(predict(state, task.task_id, X),
                                          predict(loaded, task.task_id, X))
        assert len(loaded.mlib) == len(state.mlib)

    def test_bytes_match_streaming_json_dump(self, tmp_path):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        expected = io.StringIO()
        json.dump(engine._checkpoint_payload(state), expected)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        before = path.read_bytes()

        class FillsUp:
            # writes half of what it is given, then fails like a full disk
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        state, _ = stream(state, train.tasks[2:4])
        with monkeypatch.context() as m:
            m.setattr(engine, "open",
                      lambda file, mode="r", **kw: FillsUp(builtins.open(file, mode, **kw)),
                      raising=False)
            with pytest.raises(OSError):
                save_state(state, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["state.json"]
        assert load_state(path).n_tasks == 2


    def test_retired_hyper_keys_still_load(self, tmp_path, rng):
        # checkpoints and configs written with the iterative assignment
        # carry its four settings; they are dropped, any other unknown key
        # still raises
        retired = {"beta": 1.0, "rho": 1.0, "admm_tol": 1e-6, "admm_max_iter": 2000}
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["hyper"].update(retired)
        path.write_text(json.dumps(payload))
        loaded = load_state(path)
        assert loaded.hyper == state.hyper
        X = rng.normal(size=(10, 6))
        for task in train.tasks[:3]:
            np.testing.assert_array_equal(predict(state, task.task_id, X),
                                          predict(loaded, task.task_id, X))

        config = ExperimentConfig(hyper=small_hyper(), seeds=(0,))
        values = config.to_dict()
        values["hyper"].update(retired)
        assert ExperimentConfig.from_dict(values) == config

        payload["hyper"]["betta"] = 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(TypeError, match="betta"):
            load_state(path)
        values["hyper"]["betta"] = 1.0
        with pytest.raises(TypeError, match="betta"):
            ExperimentConfig.from_dict(values)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(lambda1=-0.1)
        with pytest.raises(ValueError):
            HyperParams(gamma=0.0)
        with pytest.raises(ValueError):
            HyperParams(phi="relu")
        with pytest.raises(ValueError):
            HyperParams(p=0)

    def test_tanh_activation_pair(self):
        phi, phi_inv = activation_pair("tanh")
        v = np.array([-0.9, 0.0, 2.5])
        np.testing.assert_allclose(phi_inv(phi(v)), np.clip(v, -7.3, 7.3), atol=1e-5)
        assert np.isfinite(phi_inv(np.array([1.0, -1.0]))).all()


class TestTanhActivation:
    def test_engine_runs_with_tanh(self):
        # codes can leave (-1, 1); the clamped inverse must keep the
        # encoder refit finite
        train, _ = small_corpus(clusters=2, tasks_per_cluster=2, d=8, n=12)
        hp = small_hyper(p=4, phi="tanh")
        state, outcomes = stream(init_state(hp, seed=0), train.tasks)
        assert np.isfinite(state.flib.encoder).all()
        assert np.isfinite(state.flib.decoder).all()
        for out in outcomes:
            assert np.isfinite(out.code).all()
