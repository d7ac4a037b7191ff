import base64
import builtins
import dataclasses
import errno
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifelong import engine
from lifelong.assignment import OUTLIER_WEIGHT_CAP
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import (CHECKPOINT_VERSION, HyperParams, activation_pair,
                             init_state, learn_task, load_state, predict,
                             predict_labels, reconstruct_model,
                             reconstructed_weights, save_state)
from lifelong.baselines import ablation_hyper
from lifelong.experiment import ExperimentConfig
from lifelong.libraries import init_libraries
from lifelong.sparse_code import CodeProblem, encode_task
from lifelong.tasks import ConvergenceError, TaskData, fit_single_task, hessian_at, loss_value

from oracles import decoder_statistics, full_from_pairs, in_basis, pairs


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


def replay_arrival(before, after, task):
    """The arrival of `task`, which took `before` to `after`, as the
    (s, w, omega, reps) that `oracles.decoder_statistics` re-sums: w and
    omega from a fresh single-task fit, bit for bit the arrival's, s and
    the assignment slot from the task's record in `after`, and each
    representative of `before` with its weight z_k, 1 at that slot and 0
    elsewhere, and its Hessian, which is omega for squared loss and
    otherwise the task's Hessian at the arrival-time decoder's model D s_k."""
    record = after.per_task[task.task_id]
    single = fit_single_task(task, after.hyper.ridge)
    omega = single.omega
    codes = [before.per_task[tid].code for tid in before.mlib]
    hessians = ([omega] * len(codes) if task.loss_kind == "squared"
                else [hessian_at(task, before.flib.decoder @ s_k) for s_k in codes])
    z = np.eye(len(codes) + 1)[record.slot]
    return (record.code, single.w, omega, list(zip(codes, hessians, z)))


class TestSingleTask:
    def test_base_case(self):
        train, _ = small_corpus()
        state = init_state(small_hyper(), seed=0)
        state, out = learn_task(state, train.tasks[0])
        assert len(state.mlib) == 1
        assert out.admitted
        assert list(state.per_task) == [train.tasks[0].task_id]
        single = fit_single_task(train.tasks[0], state.hyper.ridge)
        recon = reconstruct_model(state, train.tasks[0].task_id)
        diff = single.w - recon
        err = float(diff @ (single.omega @ diff))
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
            K = out.assignment.slots - 1
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
            return engine.Assignment(slot=next(picks), slots=len(distances) + 1)

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
        assert out.assignment == engine.Assignment(slot=0, slots=2)

    def test_exactly_represented_task_traces_finite_objective(self, monkeypatch):
        # the code block returns representative 0's code, at distance 0
        # from it and not from representative 1: the outlier slot gets the
        # cap instead of -gamma log 0 = inf, whose 0 * inf made the trace nan
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:5])
        assert len(state.mlib) == 2
        code = state.per_task[state.mlib[0]].code
        monkeypatch.setattr(engine, "encode_task", lambda prob: code.copy())
        _, out = learn_task(state, train.tasks[5])
        assert out.distances[0] == 0.0 < out.distances[1]
        assert out.outlier_cost == OUTLIER_WEIGHT_CAP
        trace = np.array(out.objective_trace)
        assert np.isfinite(trace).all() and np.all(np.diff(trace) <= 0)
        assert out.assignment == engine.Assignment(slot=0, slots=3)

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
            assert out.assignment == engine.Assignment(slot=0, slots=2)
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


class TestStreamInvariants:
    @given(d=st.integers(2, 12), p_frac=st.floats(0.0, 1.0), clusters=st.integers(1, 3),
           tasks_per_cluster=st.integers(1, 3), n=st.integers(4, 24),
           loss=st.sampled_from(["squared", "logistic"]),
           # lambda1 up to 1e4 zeroes some codes or all
           lambda1=st.floats(0.0, 0.1) | st.floats(0.0, 1e4), lambda2=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_every_arrival_keeps_the_invariants(self, d, p_frac, clusters, tasks_per_cluster,
                                                n, loss, lambda1, lambda2, seed, order_seed):
        corpus = generate_disjoint(seed=seed, clusters=min(clusters, d // 2),
                                   tasks_per_cluster=tasks_per_cluster, d=d, n_per_task=n)
        order = np.random.default_rng(order_seed).permutation(len(corpus))
        tasks = [corpus.tasks[i] for i in order]
        hp = HyperParams(p=1 + int(p_frac * (d - 1)), lambda1=lambda1, lambda2=lambda2)
        if loss == "logistic":
            tasks = [dataclasses.replace(t, targets=np.where(t.targets >= 0, 1.0, -1.0),
                                         loss_kind="logistic") for t in tasks]
            hp = dataclasses.replace(hp, ridge=1e-2)
        state = init_state(hp, seed)
        arrivals = []
        for task in tasks:
            K = len(state.mlib)
            before = state
            state, out = learn_task(state, task)
            arrivals.append(replay_arrival(before, state, task))
            where = f"arrival {len(arrivals)} ({task.task_id})"
            trace = np.array(out.objective_trace)
            # the trace may rise by relative round-off only
            assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1])), where
            assert out.rounds <= K + 2, where
            assert out.admitted == (out.assignment.picks_outlier and bool(out.code.any())), where
            for columns in (state.flib.decoder, state.flib.encoder):
                assert np.linalg.norm(columns, axis=0).max() <= 1.0 + 1e-12, where
            flib = state.flib
            # the statistics are sized by the basis, empty while every code is 0
            r = flib.basis.shape[1]
            assert flib.acc_A_pairs.shape == (r * (r + 1) // 2, d, d), where
            assert flib.acc_b_coords.shape == (d * r,), where
            blocks, b = in_basis(*decoder_statistics(arrivals, hp.lambda2), flib.basis)
            M = sum(np.outer(s, w) for s, w, _, _ in arrivals)
            C = sum(np.outer(w, w) for _, w, _, _ in arrivals)
            for name, batch, inc in (("acc_A_pairs", blocks, flib.acc_A_pairs),
                                     ("acc_b_coords", b, flib.acc_b_coords),
                                     ("acc_M", M, flib.acc_M), ("acc_C", C, flib.acc_C)):
                scale = np.abs(batch).max(initial=1.0)
                assert np.abs(batch - inc).max(initial=0.0) <= 1e-9 * scale, f"{where}: {name}"
            # the representatives are learned tasks in stream order, each at its
            # own index as slot with a read-only nonzero code, and no task's
            # slot passes the representatives admitted before it
            ids = list(state.per_task)
            assert set(state.mlib) <= set(ids), where
            positions = [ids.index(tid) for tid in state.mlib]
            assert all(a < b for a, b in zip(positions, positions[1:])), where
            for i, tid in enumerate(state.mlib):
                rec = state.per_task[tid]
                assert rec.slot == i and not rec.code.flags.writeable and rec.code.any(), where
            for n, rec in enumerate(state.per_task.values()):
                assert rec.slot <= sum(k < n for k in positions), where
            assert flib.tasks_seen == len(state.per_task), where


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


def data_file(path):
    """The one data file beside the checkpoint at `path`."""
    files = [f for f in path.parent.iterdir()
             if re.fullmatch(re.escape(path.stem) + r"\.[0-9a-f]{16}\.bin", f.name)]
    assert len(files) == 1, files
    return files[0]


def read_checkpoint(path):
    """The checkpoint's document and its data file's arrays by name, in order."""
    payload = json.loads(path.read_text())
    flat = np.frombuffer(data_file(path).read_bytes(), dtype="<f8")
    arrays, at = {}, 0
    for name, shape in engine._checked_layout(payload, payload["hyper"]["p"]):
        size = math.prod(shape)
        arrays[name] = flat[at:at + size].reshape(shape).copy()
        at += size
    assert at == flat.size
    return payload, arrays


def write_checkpoint(path, payload, arrays):
    """`payload` and `arrays`, of any shapes, in their order, as the
    checkpoint at `path`, with the digest of `json.dumps` of the rest of
    `payload` and then the arrays' bytes, and that digest's data file name;
    returns the data file."""
    data = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())
    data_file(path).unlink()
    document = json.dumps({key: value for key, value in payload.items() if key != "sha256"})
    payload["sha256"] = hashlib.sha256(document.encode("ascii") + data).hexdigest()
    data_path = engine._data_path(path, payload["sha256"])
    data_path.write_bytes(data)
    path.write_text(json.dumps(payload))
    return data_path


def copy_checkpoint(src, dst):
    """The checkpoint at `src` copied to `dst`, its data file renamed for `dst`."""
    dst.write_bytes(src.read_bytes())
    data = data_file(src)
    (dst.parent / (dst.stem + data.name[len(src.stem):])).write_bytes(data.read_bytes())


def data_bytes(state):
    """8 (r(r+1)/2 d(d+1)/2 + d(d+1)/2 + 3dp + pr + dr + Tp): the data
    file's size for `state`."""
    flib = state.flib
    d, p, r = flib.d, flib.p, flib.basis.shape[1]
    tri = d * (d + 1) // 2
    return 8 * (r * (r + 1) // 2 * tri + tri + 3 * d * p + p * r + d * r
                + state.n_tasks * p)


def slot_counts(state):
    """Each task's slot count, one more than the representatives admitted
    before it, by task id."""
    ids = list(state.per_task)
    return {tid: 1 + sum(ids.index(rep) < n for rep in state.mlib)
            for n, tid in enumerate(ids)}


def version_5_document(state):
    """The one JSON document version 5 wrote for `state`, less each task's
    w, which a state no longer holds: every array as base64 of its float64
    bytes, acc_A and acc_C as the packed pair triangles with their "kron"
    factors."""
    flib = state.flib
    d = flib.d
    slots = slot_counts(state)

    def array(a):
        a = np.ascontiguousarray(a, dtype="<f8")
        return {"dtype": "<f8", "shape": list(a.shape),
                "data": base64.b64encode(a.tobytes()).decode("ascii")}

    def packed(blocks, r):
        ia, ja = np.triu_indices(d)
        return {**array(blocks[:, ia, ja]), "shape": [r * d, r * d], "kron": [r, d]}

    return {
        "version": 5, "d": d, "p": flib.p, "tasks_seen": flib.tasks_seen,
        "decoder": array(flib.decoder), "encoder": array(flib.encoder),
        "basis": array(flib.basis), "acc_A": packed(flib.acc_A_pairs, flib.basis.shape[1]),
        "acc_b": array(flib.acc_b_coords), "acc_M": array(flib.acc_M),
        "acc_C": packed(flib.acc_C[None], 1),
        "representatives": [{"code": array(state.per_task[tid].code), "source_task": tid,
                             "admitted_at": list(state.per_task).index(tid) + 1}
                            for tid in state.mlib],
        "seed": state.seed, "hyper": dataclasses.asdict(state.hyper),
        "per_task": {tid: {"code": array(rec.code), "z": array(np.eye(slots[tid])[rec.slot]),
                           "loss_kind": rec.loss_kind}
                     for tid, rec in state.per_task.items()},
    }


# marks an entry that test_malformed_entry_refused deletes
DELETE = object()


@pytest.fixture(scope="module")
def six_task_checkpoint(tmp_path_factory):
    """A checkpoint of six tasks with two representatives, the last task at
    the second one's slot, and a directory that holds its data file, for
    documents written beside it."""
    train, _ = small_corpus()
    state, _ = stream(init_state(small_hyper(), seed=0), train.tasks)
    assert len(state.mlib) == 2 and state.per_task[train.tasks[-1].task_id].slot == 1
    path = tmp_path_factory.mktemp("valid") / "state.json"
    save_state(state, path)
    work = tmp_path_factory.mktemp("mutated")
    copy_checkpoint(path, work / "state.json")
    return path, work


def payload_at(doc, path):
    """The value at `path`, keys and indices, in the JSON document `doc`."""
    for key in path:
        doc = doc[key]
    return doc


def document_paths(doc, prefix=()):
    """The path of keys and indices to every value in the JSON document `doc`."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from document_paths(value, prefix + (key,))


# a value of each JSON type, for swapping one entry's type
JSON_VALUES = (None, True, 3, 1.5, "x", [], {})


def mutate_document(doc, data):
    """Change the JSON document `doc` in place as `data` draws: drop one
    entry, give it a value of another JSON type, set an integer out of
    range or add a key to an object.  Returns the path of the entry
    changed, an added key last."""
    paths = list(document_paths(doc))
    kind = data.draw(st.sampled_from(["drop", "retype", "out_of_range", "add"]), label="kind")
    if kind == "out_of_range":
        paths = [p for p in paths if type(payload_at(doc, p)) is int]
    elif kind == "add":
        paths = [()] + [p for p in paths if isinstance(payload_at(doc, p), dict)]
    where = data.draw(st.sampled_from(paths), label="path")
    if kind == "add":
        key = data.draw(st.text(max_size=3), label="key")
        payload_at(doc, where)[key] = data.draw(st.sampled_from(JSON_VALUES), label="value")
        return where + (key,)
    parent = payload_at(doc, where[:-1])
    if kind == "drop":
        del parent[where[-1]]
    elif kind == "retype":
        old = type(parent[where[-1]])
        parent[where[-1]] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not old]), label="value")
    else:
        parent[where[-1]] = data.draw(st.sampled_from([-1, 0, 1, 2**31, 2**64])
                                      | st.integers(), label="value")
    return where


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
        json.dump(engine._checkpoint_payload(state)[0], expected)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("p", [1, 5])
    def test_bytes_match_reference_encoding_for_any_task_id(self, tmp_path, p):
        # ids that JSON escapes, the first arrival's also in
        # "representatives", change no byte of the document
        train, _ = small_corpus()
        ids = ('say "hi"', "back\\slash", "café", "ctrl\x01", "tab\t")
        tasks = [dataclasses.replace(t, task_id=tid) for t, tid in zip(train.tasks, ids)]
        state, _ = stream(init_state(small_hyper(p=p), seed=0), tasks)
        assert state.mlib[0] == ids[0]
        path = tmp_path / "state.json"
        save_state(state, path)
        assert path.read_bytes() == json.dumps(engine._checkpoint_payload(state)[0]).encode("ascii")
        assert_same_state(load_state(path), state)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        # a write that fails part-way in the data file, and one that fails
        # in the document after the new data file is in place, both leave
        # the directory as it was
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert len(before) == 2

        class FillsUp:
            # writes half of what it is given, then fails like a full disk
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        state, _ = stream(state, train.tasks[2:4])
        for failing in (0, 1):   # the data file, then the document
            opened = []

            def fake_open(file, mode="r", **kw):
                opened.append(Path(file).name)
                fh = builtins.open(file, mode, **kw)
                return FillsUp(fh) if len(opened) == failing + 1 else fh

            with monkeypatch.context() as m:
                m.setattr(engine, "open", fake_open, raising=False)
                with pytest.raises(OSError):
                    save_state(state, path)
            assert re.fullmatch(r"\.state\.[0-9a-f]{16}\.bin\.tmp", opened[0])
            assert opened[1:] == ([".state.json.tmp"] if failing else [])
            assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        assert load_state(path).n_tasks == 2

    def test_two_saves_of_one_state_are_identical(self, tmp_path):
        # the data file's name follows from its content, so one state saved
        # to two paths gives the same document and data bytes
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        save_state(state, one)
        save_state(state, two)
        assert one.read_bytes() == two.read_bytes()
        assert data_file(one).read_bytes() == data_file(two).read_bytes()
        assert data_file(one).name[len("one"):] == data_file(two).name[len("two"):]

    def test_resave_leaves_one_data_file(self, tmp_path):
        # a second state saved to the same path removes the first one's
        # data file, and no data file of another stem
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path, other = tmp_path / "state.json", tmp_path / "state_t2.json"
        save_state(state, path)
        save_state(state, other)
        first = data_file(path)
        state, _ = stream(state, train.tasks[2:4])
        save_state(state, path)
        assert data_file(path) != first and not first.exists()
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            ["state.json", data_file(path).name, "state_t2.json", data_file(other).name])
        assert load_state(path).n_tasks == 4 and load_state(other).n_tasks == 2

    def test_path_not_ending_in_json_refused(self, tmp_path):
        # one stem names one checkpoint: a save to state.ckpt would remove
        # the data file of state.json
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path, other = tmp_path / "state.json", tmp_path / "state.ckpt"
        save_state(state, path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        state, _ = stream(state, train.tasks[2:3])
        with pytest.raises(ValueError, match=re.escape(f"{other}: a checkpoint path must end "
                                                       f"in .json")):
            save_state(state, other)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        assert load_state(path).n_tasks == 2

    def test_final_d40_data_file_size(self, tmp_path):
        # the final state of the default d = 40, p = 20 stream, at r = p
        corpus = generate_disjoint(seed=0, clusters=3, tasks_per_cluster=10, d=40)
        train, _ = standardize_targets(*split_corpus(corpus, 0.5, seed=0))
        state, _ = stream(init_state(HyperParams(), seed=0), train.tasks)
        assert state.flib.basis.shape == (20, 20) and state.n_tasks == 30
        path = tmp_path / "state.json"
        save_state(state, path)
        assert data_file(path).stat().st_size == data_bytes(state)
        assert_same_state(load_state(path), state)

    @pytest.mark.parametrize("fault", ["missing", "short", "flipped", "swapped"])
    def test_data_file_fault_refused(self, tmp_path, fault):
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        data = data_file(path)
        raw = data.read_bytes()
        if fault == "missing":
            data.unlink()
        elif fault == "short":
            data.write_bytes(raw[:-1])
        elif fault == "flipped":
            data.write_bytes(raw[:100] + bytes([raw[100] ^ 1]) + raw[101:])
        else:
            # the data file of the same stream from another seed
            other, _ = stream(init_state(small_hyper(), seed=1), train.tasks[:4])
            save_state(other, tmp_path / "other.json")
            data.write_bytes(data_file(tmp_path / "other.json").read_bytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: data file {str(data)!r}")):
            load_state(path)

    def test_padded_data_file_refused_unread(self, tmp_path, monkeypatch):
        # the size is compared before any byte is read, so a data file
        # padded to any length costs nothing to refuse
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        data = data_file(path)
        padded = data_bytes(state) + 2 ** 20
        with open(data, "r+b") as fh:
            fh.truncate(padded)
        read = []
        read_bytes = Path.read_bytes

        def spy(self):
            read.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", spy)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: data file {str(data)!r} holds {padded} bytes, expected "
                f"{data_bytes(state)} ")):
            load_state(path)
        assert data not in read

    @pytest.mark.parametrize("version", [1, 2, 4, 5, 6, 7, 8, 9])
    def test_retired_version_refused(self, tmp_path, version):
        # version 1 had no version key and stored arrays as nested lists,
        # version 2 stored every array in full, both without a basis,
        # version 4 held the statistics over all p(p+1)/2 pairs and dp
        # entries, zero past the basis rank r, version 5 was one JSON
        # document with every array as base64 text, version 6 held each
        # task's simplex vector z in the data file and no slot in the
        # document, version 7 stored p, tasks_seen, each task's slot count
        # and each representative's code, source task and arrival,
        # version 8 the representatives' task ids, with a digest of the
        # data alone, as versions 6 and 7 had, and version 9 each task's
        # single-task fit w after the codes; none is read
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        payload = version_5_document(state)
        flib = state.flib
        d, p, r = flib.d, flib.p, flib.basis.shape[1]
        assert r < p
        acc_A = np.zeros((p * d, p * d))
        acc_A[:r * d, :r * d] = full_from_pairs(flib.acc_A_pairs, r)
        acc_b = np.zeros(p * d)
        acc_b[:r * d] = flib.acc_b_coords
        path = tmp_path / "state.json"
        if version in (6, 7, 8):
            reps = [{key: rep[key] for key in ("source_task", "admitted_at")}
                    for rep in payload["representatives"]]
            save_state(state, path)
            payload = json.loads(path.read_text())
            slots = slot_counts(state)
            for tid, rec in payload["per_task"].items():
                if version == 6:
                    del rec["slot"]
                elif version == 7:
                    rec["slots"] = slots[tid]
            if version == 7:
                payload.update(p=p, tasks_seen=flib.tasks_seen, representatives=reps)
            elif version == 8:
                payload["representatives"] = list(state.mlib)
            payload["version"] = version
            data = data_file(path)
            payload["sha256"] = hashlib.sha256(data.read_bytes()).hexdigest()
            data.rename(engine._data_path(path, payload["sha256"]))
        elif version == 9:
            save_state(state, path)
            payload, arrays = read_checkpoint(path)
            arrays["per_task.w"] = [fit_single_task(t, state.hyper.ridge).w
                                    for t in train.tasks[:4]]
            payload["version"] = 9
            write_checkpoint(path, payload, arrays)
        elif version == 4:
            # pair blocks in np.triu_indices(p) order, each packed
            ia, ja = np.triu_indices(d)
            packed = np.stack([acc_A[i * d:(i + 1) * d, j * d:(j + 1) * d][ia, ja]
                               for i, j in zip(*np.triu_indices(p))])
            payload["acc_A"] = {"dtype": "<f8", "shape": [p * d, p * d], "kron": [p, d],
                                "data": base64.b64encode(packed.tobytes()).decode("ascii")}
            payload["acc_b"] = version_5_document(
                dataclasses.replace(state, flib=dataclasses.replace(flib, acc_b_coords=acc_b))
            )["acc_b"]
            payload["version"] = 4
        elif version < 4:
            del payload["basis"]
            arrays = {"decoder": flib.decoder, "encoder": flib.encoder, "acc_A": acc_A,
                      "acc_b": acc_b, "acc_M": flib.acc_M, "acc_C": flib.acc_C}
            for name, a in arrays.items():
                payload[name] = a.tolist() if version == 1 else {
                    "dtype": "<f8", "shape": list(a.shape),
                    "data": base64.b64encode(a.tobytes()).decode("ascii")}
            if version == 1:
                del payload["version"]
            else:
                payload["version"] = 2
        path.write_text(json.dumps(payload))
        message = (f"{path}: checkpoint version {version} is not readable; "
                   f"readable versions are [10]")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(path)
        # read past the version, versions 1-5 have no basis rank to size the
        # data, version 6 has no slot, the digest of versions 7 and 8 is
        # not that of the document and data, and version 9's w leaves the
        # data file larger than the layout
        payload["version"] = CHECKPOINT_VERSION
        path.write_text(json.dumps(payload))
        slot = f"per_task[{next(iter(payload['per_task']))!r}].slot"
        refusal = {6: f"checkpoint entry {slot!r} is missing", 7: "checkpoint entry 'sha256'",
                   8: "checkpoint entry 'sha256'"}.get(version, "checkpoint entry 'r' is missing")
        if version == 9:
            refusal = f"data file {str(data_file(path))!r} holds"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(refusal)}"):
            load_state(path)

    def test_acc_C_in_full_refused(self, tmp_path):
        # symmetric, but stored in full: with a digest that matches, the
        # data file does not fit the layout; acc_A in full is refused in
        # test_full_acc_A_with_asymmetric_blocks_refused
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        arrays["acc_C"] = state.flib.acc_C
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
            load_state(path)

    def test_packed_acc_A_matches_full_matrix_encoding(self, tmp_path):
        # written straight from the pair blocks, the data file holds the
        # (a <= b) triangle, in np.triu_indices order, of each block (i <= j)
        # of the (dr) x (dr) matrix of basis coordinates, in j-major order
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        flib = state.flib
        r, d = flib.basis.shape[1], flib.d
        path = tmp_path / "state.json"
        save_state(state, path)
        _, arrays = read_checkpoint(path)
        coords = full_from_pairs(flib.acc_A_pairs, r).reshape(r, d, r, d)
        ia, ja = np.triu_indices(d)
        packed = np.stack([coords[i, ia, j, ja] for i, j in pairs(r)])
        assert arrays["acc_A"].tobytes() == packed.tobytes()

    def test_mid_stream_checkpoint_stores_only_the_basis_pairs(self, tmp_path):
        # with r < p basis directions, the data file holds r(r+1)/2 packed
        # pair blocks and d r entries of acc_b, and loads back bit for bit
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        flib = state.flib
        d, p, r = flib.d, flib.p, flib.basis.shape[1]
        assert 1 <= r < p
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        assert payload["r"] == r
        assert arrays["acc_A"].shape == (r * (r + 1) // 2, d * (d + 1) // 2)
        assert arrays["acc_b"].shape == (d * r,)
        assert data_file(path).stat().st_size == data_bytes(state)
        assert_same_state(load_state(path), state)

    def test_version_3_checkpoint_refused(self):
        # written while the statistics were held in the identity basis with
        # no "basis" entry, by saving the first 4 tasks of small_corpus()
        # under small_hyper() and seed 0; version 10 alone is read
        old = Path(__file__).parent / "data" / "checkpoint_v3_full_matrix.json"
        assert json.loads(old.read_text())["version"] == 3
        message = f"{old}: checkpoint version 3 is not readable; readable versions are [10]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(old)

    def test_full_acc_A_with_asymmetric_blocks_refused(self, tmp_path):
        # pair triangles cannot hold an acc_A whose block (j, i) differs
        # from block (i, j), and a data file that holds it in full, with a
        # digest that matches, does not fit the layout
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        d = state.flib.d
        r = state.flib.basis.shape[1]
        assert r >= 2
        full = full_from_pairs(state.flib.acc_A_pairs, r)
        row, col = 2, d + 3     # entry (2, 3) of block (0, 1)
        full[row, col] = np.nextafter(full[row, col], np.inf)
        arrays["acc_A"] = full
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
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

    @pytest.mark.parametrize("key, value", [("hyper.p", 3)])
    def test_parts_disagreeing_refused(self, tmp_path, key, value):
        # hyper.p is the library's p, which sizes the arrays: a hyper.p
        # other than the saved library's leaves the data file with a size
        # other than the shapes need
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["hyper"]["p"] = value
        path.write_text(json.dumps(payload))
        message = f"{path}: data file {str(data_file(path))!r} holds"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_state(path)

    @pytest.mark.parametrize("key", ["decoder", "acc_b", "acc_A", "per_task.code",
                                     "per_task.slot", "per_task.loss_kind"])
    def test_shape_disagreeing_with_d_and_p_named(self, tmp_path, key):
        # every shape follows from d, p, r and the number of tasks: an array
        # with an entry more or less, or an r one higher, leaves the data
        # file with a size other than those shapes need, and a slot or loss
        # that no arrival could have is refused by its entry, even with a
        # digest that matches
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        flib = state.flib
        tid = train.tasks[1].task_id
        entry = payload["per_task"][tid]
        data = data_file(path)
        if key == "acc_A":
            assert payload["r"] < flib.p
            payload["r"] += 1
            path.write_text(json.dumps(payload))
        elif key in ("per_task.slot", "per_task.loss_kind"):
            if key == "per_task.slot":
                entry["slot"] = len(state.mlib) + 1
            else:
                entry["loss_kind"] = "bogus"
            write_checkpoint(path, payload, arrays)
        else:
            grown = np.append(arrays[key], 0.0)
            arrays[key] = grown[:-2] if key == "per_task.code" else grown
            data = write_checkpoint(path, payload, arrays)
        if key in ("per_task.slot", "per_task.loss_kind"):
            match = repr(f"per_task[{tid!r}]" + key[len("per_task"):])
        else:
            match = f"data file {str(data)!r} holds"
        with pytest.raises(ValueError, match=re.escape(match)):
            load_state(path)

    @pytest.mark.parametrize("key, fault", [("basis", "wider_than_p"),
                                            ("basis", "rows_not_p"),
                                            ("basis", "not_orthonormal"),
                                            ("acc_A", "past_basis"),
                                            ("acc_b", "past_basis")])
    def test_basis_disagreeing_with_statistics_named(self, tmp_path, key, fault):
        # after 2 tasks at p = 5 the basis spans at most 2 directions, and
        # the statistics are sized by them; a basis or statistics that break
        # this would corrupt every later refit: an r above p and a basis
        # that is not orthonormal are refused by name, and a basis or
        # statistics sized otherwise, even where the extra entries are
        # zero, leave the data file with the wrong size
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        flib = state.flib
        d, p = flib.d, flib.p
        q = flib.basis
        r = q.shape[1]
        assert 1 <= r < p
        if fault == "wider_than_p":
            payload["r"] = p + 1
            path.write_text(json.dumps(payload))
            match = repr("r")
        else:
            if fault == "rows_not_p":
                arrays["basis"] = np.vstack([q, np.zeros((1, r))])
            elif fault == "not_orthonormal":
                arrays["basis"] = q * np.r_[1.0 + 1e-10, np.ones(r - 1)]
            elif key == "acc_A":
                # the pairs of r + 1 directions, the last r + 1 of them zero
                tri = d * (d + 1) // 2
                arrays["acc_A"] = np.concatenate([arrays["acc_A"], np.zeros((r + 1, tri))])
            else:
                arrays["acc_b"] = np.concatenate([flib.acc_b_coords, np.zeros(d)])
            data = write_checkpoint(path, payload, arrays)
            match = repr("basis") if fault == "not_orthonormal" else f"data file {str(data)!r}"
        with pytest.raises(ValueError, match=re.escape(match)):
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
            assert ours.assignment == theirs.assignment
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
            assert ours.assignment == theirs.assignment
        assert_same_state(resumed, state)
        X = np.random.default_rng(seed).normal(size=(d, 3))
        for task in tasks:
            assert (predict(resumed, task.task_id, X).tobytes()
                    == predict(state, task.task_id, X).tobytes())


    def test_logistic_stream_stays_packed_and_resumes_bit_identical(self, tmp_path):
        # logistic loss: from the second arrival on the representative's
        # Hessian is not the task's; a matrix product of the two leaves pair
        # blocks one ulp asymmetric from the fifth arrival on, which the
        # packed layout (2.9 MB here, against 10.7 MB in full) cannot hold,
        # and a save refuses
        corpus = generate_disjoint(seed=3, clusters=2, tasks_per_cluster=4, d=50,
                                   n_per_task=120)
        tasks = [dataclasses.replace(t, targets=np.sign(t.targets), loss_kind="logistic")
                 for t in corpus.tasks]
        state = init_state(HyperParams(p=20, ridge=1e-2), seed=0)
        path, resume_path = tmp_path / "state.json", tmp_path / "resume.json"
        resume_at = 5
        outcomes = []
        for t, task in enumerate(tasks, start=1):
            before = state
            state, out = learn_task(state, task)
            outcomes.append(out)
            if t > 1:
                _, _, omega, reps = replay_arrival(before, state, task)
                assert not np.array_equal(reps[0][1], omega), task.task_id
            save_state(state, path)
            assert data_file(path).stat().st_size == data_bytes(state), task.task_id
            if t == resume_at:
                copy_checkpoint(path, resume_path)
        resumed, tail = stream(load_state(resume_path), tasks[resume_at:])
        for ours, theirs in zip(tail, outcomes[resume_at:]):
            assert ours.code.tobytes() == theirs.code.tobytes()
            assert ours.assignment == theirs.assignment
        save_state(resumed, resume_path)
        assert resume_path.read_bytes() == path.read_bytes()
        assert data_file(resume_path).read_bytes() == data_file(path).read_bytes()

    @pytest.mark.parametrize("where", ["acc_A", "per_task"])
    def test_array_of_wrong_size_named(self, tmp_path, where):
        # one float64 short of what the shape needs, with a digest that
        # matches: the data file is refused by its size
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        name = "acc_A" if where == "acc_A" else "per_task.code"
        arrays[name] = arrays[name].reshape(-1)[:-1]
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
            load_state(path)

    @pytest.mark.parametrize("key, value", [("decoder", np.nan), ("acc_A", np.inf),
                                            ("per_task.code", -np.inf)])
    def test_non_finite_array_named(self, tmp_path, key, value):
        # a NaN or infinite entry would reach every prediction or refit
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        flat = arrays[key].reshape(-1)
        flat[flat.size // 2] = value
        write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"{key!r}: entries that are NaN")):
            load_state(path)

    @pytest.mark.parametrize("ablation", [False, True])
    def test_dead_learner_keeps_no_pairs_and_round_trips(self, tmp_path, ablation):
        # the first task's targets set to 0 make its code 0, and with D and
        # E refit from nothing every later code is 0 too: the basis stays
        # empty, the statistics hold no pairs, and the checkpoint holds
        # none either
        train, _ = small_corpus(clusters=3, tasks_per_cluster=3, d=12)
        first = train.tasks[0]
        tasks = [dataclasses.replace(first, targets=np.zeros_like(first.targets))]
        tasks += train.tasks[1:]
        hp = HyperParams(p=6)
        state = init_state(ablation_hyper(hp) if ablation else hp, seed=0)
        for task in tasks:
            state, out = learn_task(state, task)
            assert not out.code.any() and not out.admitted, task.task_id
            assert state.flib.basis.shape == (6, 0)
            assert state.flib.acc_A_pairs.shape == (0, 12, 12)
            assert state.flib.acc_b_coords.shape == (0,)
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        assert payload["r"] == 0 and arrays["acc_A"].shape == (0, 78)
        assert data_file(path).stat().st_size == data_bytes(state)
        loaded = load_state(path)
        assert_same_state(loaded, state)
        save_state(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert data_file(again).read_bytes() == data_file(path).read_bytes()

    @pytest.mark.parametrize("case", [
        "seed", "hyper", "per_task", "d", "r", "sha256",
        "hyper.mu", "per_task[tid].loss_kind",
        "per_task=[]", "per_task[tid]=[]", "hyper=null", "d=8.5", "r='2'",
        "seed=null",
        "per_task[tid].loss_kind=null",
        "per_task[tid].slot", "per_task[tid].slot=1.0", "per_task[tid].slot=true",
        "per_task[tid].slot=2",
        "hyper.p=5.0", "hyper.lambda1='0.5'", "hyper.phi=0", "sha256=7",
        "sha256='../escape'", "version=6.0", "document=[]"])
    def test_malformed_entry_refused(self, tmp_path, case):
        # each entry missing (a bare path) or of the wrong JSON type (path=
        # value) is refused with a ValueError that names the file and the
        # entry, even with a digest that matches; integers must be JSON
        # integers, not floats or bools.  In a path, tid stands for the
        # second task's id
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        tid = train.tasks[1].task_id
        where, _, value = case.partition("=")
        keys = [int(k) if k.isdigit() else tid if k == "tid" else k
                for k in re.findall(r"[A-Za-z_0-9]+", where)]
        value = DELETE if not value else json.loads(value.replace("'", '"'))
        if keys == ["document"]:
            payload = value
        else:
            doc = payload
            for k in keys[:-1]:
                doc = doc[k]
            if value is DELETE:
                del doc[keys[-1]]
            else:
                doc[keys[-1]] = value
        if keys[0] in ("sha256", "document"):
            path.write_text(json.dumps(payload))
        else:
            write_checkpoint(path, payload, arrays)
        if case == "version=6.0":
            name = "checkpoint version 6.0"
        elif case == "document=[]":
            name = "not a checkpoint"
        else:
            name = repr(re.sub(r"\[tid\]", f"[{tid!r}]", where))
            if value is DELETE:
                name += " is missing"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(name)}"):
            load_state(path)

    @pytest.mark.parametrize("case", ["hyper.mu", "seed", "slot", "loss_kind", "added_key"])
    def test_document_edit_refused(self, tmp_path, six_task_checkpoint, case):
        # the digest covers the document as well as the data: an edit that
        # leaves every entry well-formed and every slot one the task could
        # have taken is refused naming the file and "sha256"
        path = tmp_path / "state.json"
        copy_checkpoint(six_task_checkpoint[0], path)
        payload = json.loads(path.read_text())
        tid = list(payload["per_task"])[-1]
        if case == "hyper.mu":
            payload["hyper"]["mu"] = 0.5
        elif case == "seed":
            payload["seed"] = 123
        elif case == "slot":
            # from the second representative's slot to the first's
            payload["per_task"][tid]["slot"] = 0
        elif case == "loss_kind":
            payload["per_task"][tid]["loss_kind"] = "logistic"
        else:
            payload["representatives"] = list(load_state(path).mlib)
        path.write_text(json.dumps(payload))
        message = f"{path}: data file {str(data_file(path))!r} and the document"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}: .*'sha256'"):
            load_state(path)

    @pytest.mark.parametrize("task", [0, 2])
    def test_slot_past_the_admitted_refused(self, tmp_path, six_task_checkpoint, task):
        # a task's slot is at most the number of representatives admitted
        # before it, its outlier slot: 1 for the third task, 0 for the
        # first; one more, with a digest that matches, is refused naming
        # the file and the entry
        path = tmp_path / "state.json"
        copy_checkpoint(six_task_checkpoint[0], path)
        payload, arrays = read_checkpoint(path)
        tid = list(payload["per_task"])[task]
        payload["per_task"][tid]["slot"] = 1 + min(task, 1)
        write_checkpoint(path, payload, arrays)
        message = f"{path}: checkpoint entry {f'per_task[{tid!r}].slot'!r}: slot"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_state(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_loads_or_is_refused_by_name(self, six_task_checkpoint, data):
        # one entry of a valid document dropped, of another JSON type, an
        # integer out of range or an unknown key added: a ValueError names
        # the file and an entry, never another error, and only a document
        # that the change left as it was loads
        source, work = six_task_checkpoint
        payload = json.loads(source.read_text())
        mutate_document(payload, data)
        path = work / "state.json"
        path.write_text(json.dumps(payload))
        try:
            load_state(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            assert re.search(r"checkpoint (entry|array|version)|data file|not a checkpoint",
                             str(exc)), exc
        else:
            assert path.read_text() == source.read_text()

    @pytest.mark.parametrize("key, value", [
        ("beta", 1.0), ("rho", 1.0), ("admm_tol", 1e-6), ("admm_max_iter", 2000),
        ("coder_tol", 1e-6), ("coder_max_iter", 5000), ("max_outer", 20), ("outer_tol", 1e-5),
        ("alpha", 3.0), ("admission_enabled", True), ("betta", 1.0)])
    def test_retired_or_unknown_hyper_key_refused(self, tmp_path, key, value):
        # the settings were retired before version 6 existed, so no
        # checkpoint that loads carries one; a checkpoint's hyper holds
        # exactly the fields of HyperParams
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["hyper"][key] = value
        path.write_text(json.dumps(payload))
        message = f"{path}: checkpoint entry {'hyper.' + key!r}: not a setting of HyperParams"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(path)

    @pytest.mark.parametrize("key, value", [("p", 0), ("p", -1), ("gamma", 0.0),
                                            ("lambda1", -1.0), ("mu", 10**400)])
    def test_setting_refused_by_hyper_params_named(self, tmp_path, key, value):
        # a setting of the right JSON type that HyperParams refuses is
        # refused naming the hyper entry too
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload = json.loads(path.read_text())
        payload["hyper"][key] = value
        path.write_text(json.dumps(payload))
        message = f"{path}: checkpoint entry {'hyper.' + key!r}: {key} must be"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load_state(path)

    @pytest.mark.parametrize("key, value", [
        ("p", 0), ("p", 5.0), ("gamma", 0.0), ("lambda1", -1.0), ("lambda1", "0.5"),
        ("mu", 10**400), ("phi", "relu"), ("alpha", 3.0)])
    def test_hyper_refused_as_a_config_refuses_it(self, tmp_path, six_task_checkpoint,
                                                   key, value):
        # one reader turns a JSON hyper object into HyperParams, so a
        # checkpoint whose digest matches its edited hyper is refused with
        # the text a config's is refused with, after the document's name
        path = tmp_path / "state.json"
        copy_checkpoint(six_task_checkpoint[0], path)
        payload, arrays = read_checkpoint(path)
        payload["hyper"][key] = value
        write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError) as checkpoint:
            load_state(path)
        with pytest.raises(ValueError) as config:
            ExperimentConfig.from_dict({"hyper": {key: value}})
        refusal = str(config.value).removeprefix("config ")
        assert refusal.startswith(f"entry {'hyper.' + key!r}: ")
        assert str(checkpoint.value) == f"{path}: checkpoint {refusal}"


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
        with pytest.raises(ValueError, match="^config entry 'hyper.mu': mu must be finite"):
            ExperimentConfig.from_dict({"hyper": json.loads('{"mu": NaN}')})

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
