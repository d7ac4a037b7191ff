import base64
import builtins
import dataclasses
import errno
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong import engine
from lifelong.assignment import OUTLIER_WEIGHT_CAP
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import (HyperParams, activation_pair, init_state,
                             learn_task, load_state, predict, predict_labels,
                             reconstruct_model, reconstructed_weights,
                             save_state)
from lifelong.experiment import ExperimentConfig
from lifelong.libraries import (CHECKPOINT_VERSION, _pairs_to_full, bump_tasks_seen,
                                encode_array, init_libraries, library_from_dict,
                                library_to_dict, update_decoder, update_encoder)
from lifelong.sparse_code import CodeProblem, encode_task
from lifelong.tasks import ConvergenceError, TaskData, fit_single_task, loss_value


def small_corpus(seed=0, clusters=2, tasks_per_cluster=3, d=10, n=16, noise=0.05):
    corpus = generate_disjoint(seed=seed, clusters=clusters,
                               tasks_per_cluster=tasks_per_cluster, d=d,
                               n_per_task=n, noise_std=noise)
    train, test = split_corpus(corpus, 0.5, seed=seed)
    return standardize_targets(train, test)


def small_hyper(**overrides):
    base = dict(p=5, lambda1=0.01, lambda2=0.5, gamma=0.5)
    base.update(overrides)
    return HyperParams(**base)


def assert_same_state(ours, theirs, where="state"):
    """Field for field, arrays bit for bit (dtype, shape and bytes)."""
    if dataclasses.is_dataclass(ours):
        assert type(ours) is type(theirs), where
        for f in dataclasses.fields(ours):
            assert_same_state(getattr(ours, f.name), getattr(theirs, f.name),
                              f"{where}.{f.name}")
    elif isinstance(ours, np.ndarray):
        assert (ours.dtype, ours.shape, ours.tobytes()) == \
            (theirs.dtype, theirs.shape, theirs.tobytes()), where
    elif isinstance(ours, dict):
        assert list(ours) == list(theirs), where
        for key in ours:
            assert_same_state(ours[key], theirs[key], f"{where}[{key!r}]")
    elif isinstance(ours, tuple):
        assert type(theirs) is tuple and len(ours) == len(theirs), where
        for i, (a, b) in enumerate(zip(ours, theirs)):
            assert_same_state(a, b, f"{where}[{i}]")
    else:
        assert type(ours) is type(theirs) and ours == theirs, where


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
        w = state.per_task[train.tasks[0].task_id].w
        recon = reconstruct_model(state, train.tasks[0].task_id)
        diff = w - recon
        err = float(diff @ (out.contribution.omega @ diff))
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
            # no slot is visited twice: K + 1 slots, then the repeat
            K = out.assignment.z.size - 1
            assert out.rounds <= K + 2, out.task_id

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

    @staticmethod
    def scripted_slots(monkeypatch, slots):
        # the assignment block picks the given slots in turn
        picks = iter(slots)

        def solve(distances, d0, lambda2):
            z = np.zeros(len(distances) + 1)
            z[next(picks)] = 1.0
            return engine.Assignment(z=z)

        monkeypatch.setattr(engine, "solve_assignment", solve)

    def test_returning_slot_raises(self, monkeypatch):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:1])
        self.scripted_slots(monkeypatch, [1, 0, 1])
        with pytest.raises(ConvergenceError, match=r"slot 1 .*\[1, 0, 1\]"):
            learn_task(state, train.tasks[1])

    def test_changed_slot_gets_another_round(self, monkeypatch):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:1])
        self.scripted_slots(monkeypatch, [1, 0, 0])
        _, out = learn_task(state, train.tasks[1])
        assert out.rounds == 3
        np.testing.assert_array_equal(out.assignment.z, [1.0, 0.0])

    def test_exactly_represented_task_traces_finite_objective(self, monkeypatch):
        # the code block returns representative 0's code, at distance 0
        # from it and not from representative 1: the outlier slot gets the
        # cap instead of -gamma log 0 = inf, whose 0 * inf made the trace nan
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:5])
        assert len(state.mlib) == 2
        code = state.mlib.reps[0].code
        monkeypatch.setattr(engine, "encode_task", lambda prob: code.copy())
        _, out = learn_task(state, train.tasks[5])
        assert out.distances[0] == 0.0 < out.distances[1]
        assert out.outlier_cost == OUTLIER_WEIGHT_CAP
        trace = np.array(out.objective_trace)
        assert np.isfinite(trace).all() and np.all(np.diff(trace) <= 0)
        np.testing.assert_array_equal(out.assignment.z, [1.0, 0.0, 0.0])

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
        hp = small_hyper(lambda2=0.0)
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
            expected = encode_task(prob)
            state, out = learn_task(state, task)
            assert np.abs(out.code - expected).max() <= 1e-6
        assert len(state.mlib) == 1

    def test_alternation_settles_on_slot_zero(self):
        # with lambda2 = 0 every slot costs nothing and the code ignores the
        # representatives, so the assignment is the lowest-index vertex and
        # round 1 is already the fixed point
        train, _ = small_corpus()
        hp = small_hyper(lambda2=0.0)
        state, outcomes = stream(init_state(hp, seed=0), train.tasks)
        for out in outcomes[1:]:
            np.testing.assert_array_equal(out.assignment.z, [1.0, 0.0])
            assert out.rounds == 1
            assert len(out.distances) == 1 and np.isfinite(out.outlier_cost)

    def test_no_admissions_beyond_first(self):
        train, _ = small_corpus(clusters=3, tasks_per_cluster=3, d=12)
        hp = small_hyper(lambda2=0.0)
        state, outcomes = stream(init_state(hp, seed=0), train.tasks)
        assert [o.admitted for o in outcomes] == [True] + [False] * (len(outcomes) - 1)


class TestZeroCode:
    def test_zero_code_not_admitted(self):
        # the 30-task d = 40 benchmark corpus of engine seed 40003: after one
        # task the decoder is about rank one, and the second arrival, from
        # another cluster, gets a code that is exactly zero while the
        # outlier slot wins its assignment
        seed = 40003
        corpus = generate_disjoint(seed=seed, clusters=3, tasks_per_cluster=10, d=40,
                                   n_per_task=50)
        train, test = split_corpus(corpus, ExperimentConfig.train_fraction, seed)
        train, _ = standardize_targets(train, test)
        by_id = {t.task_id: t for t in train.tasks}
        state, (first, second) = stream(init_state(HyperParams(p=20), seed),
                                        [by_id["c2_t0"], by_id["c0_t9"]])
        assert first.admitted
        assert not second.code.any() and second.assignment.picks_outlier
        assert not second.admitted and len(state.mlib) == 1


class TestRelearn:
    # each task arrives once; the one refusal reads the same for a state
    # learned in memory and for a loaded one

    def test_seen_task_refused_state_unchanged(self):
        train, _ = small_corpus()
        task = train.tasks[0]
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        before = {name: getattr(state.flib, name).tobytes()
                  for name in ("decoder", "encoder", "acc_A_pairs", "acc_b_coords")}
        with pytest.raises(ValueError, match=f"^task '{task.task_id}': already learned"):
            learn_task(state, task)
        assert list(state.per_task) == [t.task_id for t in train.tasks[:2]]
        assert state.flib.tasks_seen == len(state.per_task) == 2
        assert {name: getattr(state.flib, name).tobytes() for name in before} == before

    def test_incompatible_relearn_rejected(self):
        # refused by its id before its data is read
        train, _ = small_corpus()
        task = train.tasks[0]
        state, _ = stream(init_state(small_hyper(), seed=0), [task])
        bad = TaskData(features=np.ones((10, 3)), targets=np.array([1.0, -1.0, 1.0]),
                       loss_kind="logistic", task_id=task.task_id)
        with pytest.raises(ValueError, match=f"^task '{task.task_id}': already learned"):
            learn_task(state, bad)

    def test_restored_task_refused_new_task_learned(self, tmp_path):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        seen = train.tasks[0]
        with pytest.raises(ValueError) as in_memory:
            learn_task(state, seen)
        with pytest.raises(ValueError) as restored:
            learn_task(loaded, seen)
        assert str(restored.value) == str(in_memory.value)
        new = train.tasks[3]
        resumed, out = learn_task(loaded, new)
        assert list(resumed.per_task) == [t.task_id for t in train.tasks[:4]]
        assert resumed.flib.tasks_seen == len(resumed.per_task) == 4
        learned, _ = learn_task(state, new)
        assert_same_state(resumed, learned)

    def test_arrival_type_error_keeps_its_type(self, monkeypatch):
        train, _ = small_corpus()
        task = train.tasks[0]

        def fit(*args):
            raise TypeError("boom")

        monkeypatch.setattr(engine, "fit_single_task", fit)
        with pytest.raises(TypeError, match=f"^task '{task.task_id}': boom$") as info:
            learn_task(init_state(small_hyper(), seed=0), task)
        assert type(info.value.__cause__) is TypeError


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

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_version_refused(self, tmp_path, version):
        # version 1 had no version key and stored arrays as nested lists,
        # version 2 stored every array in full; both held the statistics in
        # the identity basis, and neither is read
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        del payload["basis"]
        for name in ("decoder", "encoder", "acc_A", "acc_b", "acc_M", "acc_C"):
            a = getattr(state.flib, name)
            payload[name] = a.tolist() if version == 1 else encode_array(a)
        if version == 1:
            del payload["version"]
        else:
            payload["version"] = 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint version {version} ")):
            load_state(path)
        # read past the version, the library refuses the layout by name
        with pytest.raises(ValueError, match=re.escape(repr("acc_A"))):
            library_from_dict(payload)

    def test_acc_C_in_full_refused(self, tmp_path):
        # symmetric, but stored in full, without "kron"; acc_A in full is
        # refused in test_retired_version_refused[2] and
        # test_full_acc_A_with_asymmetric_blocks_refused
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["acc_C"] = encode_array(state.flib.acc_C)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(repr("acc_C"))):
            load_state(path)

    def test_packed_acc_A_matches_full_matrix_encoding(self):
        # written straight from the pair blocks, the entry holds the (a <= b)
        # triangle of each block (i <= j) of the full matrix of basis
        # coordinates, both in np.triu_indices order
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        flib = state.flib
        p, d = flib.p, flib.d
        entry = library_to_dict(flib, state.mlib)["acc_A"]
        assert entry["kron"] == [p, d] and entry["shape"] == [p * d, p * d]
        coords = _pairs_to_full(flib.acc_A_pairs, p).reshape(p, d, p, d)
        ia, ja = np.triu_indices(d)
        packed = np.stack([coords[i, ia, j, ja] for i, j in zip(*np.triu_indices(p))])
        assert base64.b64decode(entry["data"]) == packed.tobytes()

    def test_checkpoint_from_full_matrix_layout_loads(self, tmp_path, rng):
        # written while acc_A was held in memory as the full (dp) x (dp)
        # matrix, the code solver still took coder_tol and coder_max_iter,
        # the alternation max_outer and outer_tol and the learner alpha and
        # admission_enabled, by saving the first 4 tasks of small_corpus()
        # under small_hyper() and seed 0: it loads, saves back to the same
        # document less those six retired settings, holds the libraries
        # that the current refits build from its codes and assignments, and
        # agrees with a fresh stream of those tasks
        old = Path(__file__).parent / "data" / "checkpoint_v3_full_matrix.json"
        loaded = load_state(old)
        path = tmp_path / "state.json"
        save_state(loaded, path)
        fixture, resaved = json.loads(old.read_text()), json.loads(path.read_text())
        retired = {"coder_tol", "coder_max_iter", "max_outer", "outer_tol", "alpha",
                   "admission_enabled"}
        assert set(fixture["hyper"]) - set(resaved["hyper"]) == retired
        # version 3 held the statistics in the identity basis, which
        # version 4 stores beside them
        expected = {}
        for key, value in fixture.items():
            expected[key] = value
            if key == "encoder":
                expected["basis"] = encode_array(np.eye(loaded.flib.p))
        expected["version"] = CHECKPOINT_VERSION
        for key in expected:
            if key != "hyper":
                # every array entry, base64 of its raw bytes, unchanged
                assert resaved[key] == expected[key], key
        for name in retired:
            del expected["hyper"][name]
        assert path.read_bytes() == json.dumps(expected).encode()
        train, _ = small_corpus()
        fresh, outcomes = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        X = rng.normal(size=(10, 6))

        def assert_matches(state, bound):
            for name in ("decoder", "encoder", "acc_A", "acc_b", "acc_M", "acc_C"):
                ours, theirs = getattr(state.flib, name), getattr(loaded.flib, name)
                assert np.abs(ours - theirs).max() <= bound * max(1.0, np.abs(theirs).max())
            for tid in state.per_task:
                np.testing.assert_allclose(predict(loaded, tid, X), predict(state, tid, X),
                                           rtol=0, atol=bound)

        # the fresh stream makes the same decisions; its codes are exact,
        # while the fixture's came from FISTA stopped at a 1e-6 tolerance,
        # which moves the libraries and predictions by up to 4.7e-6
        assert ([(r.source_task, r.admitted_at) for r in fresh.mlib.reps]
                == [(r.source_task, r.admitted_at) for r in loaded.mlib.reps])
        for tid, record in loaded.per_task.items():
            np.testing.assert_array_equal(fresh.per_task[tid].assignment.z,
                                          record.assignment.z)
            assert np.abs(fresh.per_task[tid].code - record.code).max() <= 1e-5
        assert_matches(fresh, 1e-5)
        # replaying the fixture's own codes and assignments through the
        # refits rebuilds its libraries to round-off; the fresh stream
        # supplies each arrival's single-task fit and representative
        # Hessians, which squared loss makes independent of the codes
        hp = loaded.hyper
        _, phi_inv = activation_pair(hp.phi)
        flib = init_libraries(train.tasks[0].dim, hp.p, seed=0)
        for out in outcomes:
            c, record = out.contribution, loaded.per_task[out.task_id]
            assert all(H is c.omega for _, H, _ in c.reps_used)
            reps_used = tuple((rep.code, H, float(z_k)) for rep, (_, H, _), z_k
                              in zip(loaded.mlib.reps, c.reps_used, record.assignment.z))
            flib = update_decoder(flib, record.code, c.omega, reps_used, c.lambda2, c.w,
                                  hp.mu)
            flib = bump_tasks_seen(update_encoder(flib, record.code, c.w, phi_inv, hp.mu))
        assert_matches(dataclasses.replace(loaded, flib=flib), 1e-9)

    def test_full_acc_A_with_asymmetric_blocks_refused(self, tmp_path):
        # pair blocks cannot hold an acc_A whose block (j, i) differs from
        # block (i, j), nor does any accumulator load in full
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        d = state.flib.d
        full = np.array(state.flib.acc_A)
        row, col = 2, d + 3     # entry (2, 3) of block (0, 1)
        full[row, col] = np.nextafter(full[row, col], np.inf)
        payload["acc_A"] = encode_array(full)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(repr("acc_A"))):
            load_state(path)

    def test_unknown_version_rejected(self, tmp_path):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == CHECKPOINT_VERSION
        payload["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"version {CHECKPOINT_VERSION + 1}"):
            load_state(path)

    @pytest.mark.parametrize("key, value", [("tasks_seen", 1000), ("tasks_seen", 0),
                                            ("tasks_seen", -1), ("hyper.p", 3)])
    def test_parts_disagreeing_refused(self, tmp_path, key, value):
        # a tasks_seen off the per-task count skews the refit's ridge T mu
        # (-1 divides by zero at the next arrival); a hyper.p off the
        # library's would be saved back with it
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        if key == "tasks_seen":
            payload["tasks_seen"] = value
        else:
            payload["hyper"]["p"] = value
        path.write_text(json.dumps(payload))
        message = f"^{re.escape(str(path))}: {re.escape(key)} = {value} disagrees"
        with pytest.raises(ValueError, match=message):
            load_state(path)

    @pytest.mark.parametrize("key", ["decoder", "acc_b", "acc_A", "representatives[0].code",
                                     "per_task.w", "per_task.code", "per_task.z",
                                     "per_task.loss_kind"])
    def test_shape_disagreeing_with_d_and_p_named(self, tmp_path, key):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        flib = state.flib
        tid = train.tasks[1].task_id
        entry = payload["per_task"][tid]
        if key == "decoder":
            payload[key] = encode_array(flib.decoder.T)
        elif key == "acc_b":
            payload[key] = encode_array(flib.acc_b[:-1])
        elif key == "acc_A":
            # the right product, d * p, from swapped factors
            assert payload[key]["kron"] == [flib.p, flib.d]
            payload[key]["kron"] = [flib.d, flib.p]
        elif key == "representatives[0].code":
            payload["representatives"][0]["code"] = encode_array(np.zeros(flib.p + 1))
        elif key == "per_task.w":
            entry["w"] = encode_array(np.zeros(flib.d + 1))
        elif key == "per_task.code":
            entry["code"] = encode_array(np.zeros(flib.p - 1))
        elif key == "per_task.z":
            # a valid simplex vertex, one slot more than the library allows
            slots = len(state.mlib) + 2
            entry["z"] = encode_array(np.eye(slots)[0])
        else:
            entry["loss_kind"] = "bogus"
        if key.startswith("per_task."):
            key = f"per_task[{tid!r}]" + key[len("per_task"):]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_state(path)

    @pytest.mark.parametrize("key, fault", [("basis", "wider_than_p"),
                                            ("basis", "rows_not_p"),
                                            ("basis", "not_orthonormal"),
                                            ("acc_A", "past_basis"),
                                            ("acc_b", "past_basis")])
    def test_basis_disagreeing_with_statistics_named(self, tmp_path, key, fault):
        # after 2 tasks at p = 5 the basis spans at most 2 directions, and
        # every statistic past them is exactly zero; a basis or statistics
        # that break this would corrupt every later refit
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        flib = state.flib
        d, p = flib.d, flib.p
        q = flib.basis
        assert 1 <= q.shape[1] < p
        if fault == "wider_than_p":
            payload["basis"] = encode_array(np.eye(p, p + 1))
        elif fault == "rows_not_p":
            payload["basis"] = encode_array(np.vstack([q, np.zeros((1, q.shape[1]))]))
        elif fault == "not_orthonormal":
            payload["basis"] = encode_array(q * np.r_[1.0 + 1e-10, np.ones(q.shape[1] - 1)])
        elif key == "acc_A":
            pairs = flib.acc_A_pairs.copy()
            pairs[-1, 0, 0] = 1e-300    # block (p - 1, p - 1)
            flib = dataclasses.replace(flib, acc_A_pairs=pairs)
            payload["acc_A"] = library_to_dict(flib, state.mlib)["acc_A"]
        else:
            b = flib.acc_b_coords.copy()
            b[-1] = 1e-300
            payload["acc_b"] = encode_array(b)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_state(path)

    @pytest.mark.parametrize("save_at", [3, 8])
    def test_resume_mid_basis_is_bit_identical(self, tmp_path, rng, save_at):
        # saved while the basis spans fewer than p = 5 directions (T = 3)
        # and after T > p arrivals, the loaded state continues the stream
        # exactly as the state that never stopped
        train, _ = small_corpus(tasks_per_cluster=5)
        tasks = train.tasks
        whole, outcomes = stream(init_state(small_hyper(), seed=0), tasks)
        head, _ = stream(init_state(small_hyper(), seed=0), tasks[:save_at])
        p = head.flib.p
        assert (head.flib.basis.shape[1] < p) == (save_at < p)
        path = tmp_path / "state.json"
        save_state(head, path)
        resumed, tail = stream(load_state(path), tasks[save_at:])
        for ours, theirs in zip(tail, outcomes[save_at:]):
            assert ours.code.tobytes() == theirs.code.tobytes()
            assert ours.assignment.z.tobytes() == theirs.assignment.z.tobytes()
            assert ours.admitted == theirs.admitted
        for name in ("decoder", "encoder", "basis", "acc_A_pairs", "acc_b_coords"):
            assert getattr(resumed.flib, name).tobytes() == getattr(whole.flib, name).tobytes()
        X = rng.normal(size=(10, 6))
        for task in tasks:
            assert (predict(resumed, task.task_id, X).tobytes()
                    == predict(whole, task.task_id, X).tobytes())

    @given(d=st.integers(4, 12), p_frac=st.floats(0.0, 1.0), clusters=st.integers(1, 2),
           tasks_per_cluster=st.integers(1, 3), n=st.integers(4, 24),
           loss=st.sampled_from(["squared", "logistic"]),
           lambda1=st.sampled_from([0.0, 1e-3, 0.05]), lambda2=st.sampled_from([0.0, 0.05, 0.5]),
           seed=st.integers(0, 2**16), cut_frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_resumed_stream_equals_uninterrupted(self, tmp_path_factory, d, p_frac, clusters,
                                                  tasks_per_cluster, n, loss, lambda1, lambda2,
                                                  seed, cut_frac):
        corpus = generate_disjoint(seed=seed, clusters=clusters,
                                   tasks_per_cluster=tasks_per_cluster, d=d, n_per_task=n)
        tasks = corpus.tasks
        hp = HyperParams(p=1 + int(p_frac * (d - 1)), lambda1=lambda1, lambda2=lambda2)
        if loss == "logistic":
            tasks = [dataclasses.replace(t, targets=np.where(t.targets >= 0, 1.0, -1.0),
                                         loss_kind="logistic") for t in tasks]
            hp = dataclasses.replace(hp, ridge=1e-2)
        cut = 1 + int(cut_frac * (len(tasks) - 1))
        state = init_state(hp, seed)
        outcomes = []
        for task in tasks:
            state, out = learn_task(state, task)
            assert state.flib.tasks_seen == len(state.per_task)
            outcomes.append(out)
            if len(outcomes) == cut:
                head = state
        path = tmp_path_factory.mktemp("resume") / "state.json"
        save_state(head, path)
        loaded = load_state(path)
        assert_same_state(loaded, head)
        resumed, tail = stream(loaded, tasks[cut:])
        for ours, theirs in zip(tail, outcomes[cut:]):
            assert ours.code.tobytes() == theirs.code.tobytes()
            assert ours.assignment.z.tobytes() == theirs.assignment.z.tobytes()
        assert_same_state(resumed, state)
        X = np.random.default_rng(seed).normal(size=(d, 3))
        for task in tasks:
            assert (predict(resumed, task.task_id, X).tobytes()
                    == predict(state, task.task_id, X).tobytes())

    def test_logistic_stream_stays_packed_and_resumes_bit_identical(self, tmp_path):
        # logistic loss: from the second arrival on the representative's
        # Hessian is not the task's; a matrix product of the two leaves pair
        # blocks one ulp asymmetric from the fifth arrival on, which the
        # packed layout (2.9 MB here, against 10.7 MB in full) cannot hold
        corpus = generate_disjoint(seed=3, clusters=2, tasks_per_cluster=4, d=50,
                                   n_per_task=120)
        tasks = [dataclasses.replace(t, targets=np.sign(t.targets), loss_kind="logistic")
                 for t in corpus.tasks]
        state = init_state(HyperParams(p=20, ridge=1e-2), seed=0)
        path, resume_path = tmp_path / "state.json", tmp_path / "resume.json"
        resume_at = 5
        outcomes = []
        for t, task in enumerate(tasks, start=1):
            state, out = learn_task(state, task)
            outcomes.append(out)
            save_state(state, path)
            assert "kron" in json.loads(path.read_text())["acc_A"], task.task_id
            if t == resume_at:
                resume_path.write_bytes(path.read_bytes())
        assert all(out.contribution.reps_used[0][1] is not out.contribution.omega
                   for out in outcomes[1:])
        resumed, tail = stream(load_state(resume_path), tasks[resume_at:])
        for ours, theirs in zip(tail, outcomes[resume_at:]):
            assert ours.code.tobytes() == theirs.code.tobytes()
            assert ours.assignment.z.tobytes() == theirs.assignment.z.tobytes()
        save_state(resumed, resume_path)
        assert resume_path.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("where", ["acc_A", "per_task"])
    def test_array_of_wrong_size_named(self, tmp_path, where):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        tid = train.tasks[1].task_id
        entry = payload["acc_A"] if where == "acc_A" else payload["per_task"][tid]["code"]
        # one float64 short of what the shape needs
        raw = base64.b64decode(entry["data"])
        entry["data"] = base64.b64encode(raw[:-8]).decode("ascii")
        path.write_text(json.dumps(payload))
        key = "acc_A" if where == "acc_A" else f"per_task['{tid}'].code"
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            load_state(path)

    def test_retired_hyper_keys_still_load(self, tmp_path, rng):
        # checkpoints and configs written with the iterative assignment,
        # the iterative code solver, the capped alternation, the
        # assignment's l1 weight or the admission switch carry their
        # settings; they are dropped, any other unknown key still raises
        retired = {"beta": 1.0, "rho": 1.0, "admm_tol": 1e-6, "admm_max_iter": 2000,
                   "coder_tol": 1e-6, "coder_max_iter": 5000,
                   "max_outer": 20, "outer_tol": 1e-5, "alpha": 3.0,
                   "admission_enabled": True}
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

    # (settings of the hyper entry or of the config itself that the code
    # now always behaves as, the same key at a value that would change
    # what a run does or None when none would)
    RETIRED = {
        "alpha": ("hyper", {"alpha": 3.0}, None),
        "admission_enabled": ("hyper", {"admission_enabled": True},
                              {"admission_enabled": False}),
        "admission_enabled_lambda2_0": ("hyper", {"admission_enabled": False, "lambda2": 0.0},
                                        {"admission_enabled": False, "lambda2": 1e-3}),
        "normalize": ("config", {"normalize": True}, {"normalize": False}),
        "stl_ridge": ("config", {"stl_ridge": 4.0}, {"stl_ridge": 1.0}),
        "train_fraction": ("config", {"train_fraction": 0.5}, {"train_fraction": 0.7}),
    }

    @pytest.mark.parametrize("case, loader", [
        (case, loader) for case, (section, _, _) in RETIRED.items()
        for loader in (("hyper_from_dict", "ExperimentConfig.from_dict") if section == "hyper"
                       else ("ExperimentConfig.from_dict",))])
    def test_retired_key_loads_only_at_neutral_value(self, case, loader):
        section, neutral, other = self.RETIRED[case]
        hyper = small_hyper(lambda2=neutral.get("lambda2", 0.5))
        current = ExperimentConfig(hyper=hyper, seeds=(0,))

        def load(settings):
            values = current.to_dict()
            (values["hyper"] if section == "hyper" else values).update(settings)
            if loader == "hyper_from_dict":
                return engine.hyper_from_dict(values["hyper"])
            return ExperimentConfig.from_dict(values)

        assert load(neutral) == (hyper if loader == "hyper_from_dict" else current)
        if other is not None:
            key = next(iter(other))
            with pytest.raises(ValueError, match=re.escape(repr(key))):
                load(other)


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
        # json.load reads NaN and Infinity, so a config file can carry them
        for name in ("lambda1", "lambda2", "gamma", "mu", "ridge"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    HyperParams(**{name: value})
        for value in (2.5, 6.0, True, np.int64(6)):
            with pytest.raises(ValueError, match="^p must be an int >= 1"):
                HyperParams(p=value)
        values = json.loads('{"mu": NaN}')
        with pytest.raises(ValueError, match="^mu must be finite"):
            engine.hyper_from_dict(values)
        with pytest.raises(ValueError, match="^mu must be finite"):
            ExperimentConfig.from_dict({"hyper": values})

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
