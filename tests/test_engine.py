import base64
import builtins
import dataclasses
import errno
import hashlib
import io
import json
import math
import re
import tracemalloc
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
from lifelong.libraries import decoder_system, init_libraries
from lifelong.sparse_code import CodeProblem, encode_task
from lifelong.tasks import ConvergenceError, TaskData, fit_single_task, hessian_at, loss_value

from oracles import decoder_statistics, full_from_pairs, in_basis, pair_blocks, pairs


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


def logistic(tasks):
    """`tasks` as classification tasks: each target's sign, 0 as +1."""
    return [dataclasses.replace(t, targets=np.where(t.targets >= 0, 1.0, -1.0),
                                loss_kind="logistic") for t in tasks]


def logistic_d50_tasks():
    """Eight logistic tasks at d = 50 whose representative Hessians differ
    from the tasks' own; learned under HyperParams(p=20, ridge=1e-2)."""
    corpus = generate_disjoint(seed=3, clusters=2, tasks_per_cluster=4, d=50, n_per_task=120)
    return [dataclasses.replace(t, targets=np.sign(t.targets), loss_kind="logistic")
            for t in corpus.tasks]


def library_pairs(flib):
    """The pair blocks (i <= j, in j-major order) of the decoder statistics
    A that the library's terms assemble."""
    return pair_blocks(decoder_system(flib, 1.0), flib.d)


def terms_bytes(flib):
    """The bytes of each decoder term's Hessian and pair weights."""
    return [(h.tobytes(), w.tobytes()) for h, w in flib.decoder_terms]


def squared_d40_tasks():
    """The training tasks of the default stream: 3 clusters of 10 squared
    tasks at d = 40, standardised; learned under HyperParams(), the basis
    ends full at r = p = 20."""
    corpus = generate_disjoint(seed=0, clusters=3, tasks_per_cluster=10, d=40)
    return standardize_targets(*split_corpus(corpus, 0.5, seed=0))[0].tasks


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
            # the statistics are sized by the basis, empty while every code is
            # 0, and the system the refit assembles from the terms is A's
            r = flib.basis.shape[1]
            assert decoder_system(flib, 1.0).shape == (d * r, d * r), where
            assert flib.acc_b_coords.shape == (d * r,), where
            blocks, b = in_basis(*decoder_statistics(arrivals, hp.lambda2), flib.basis)
            M = sum(np.outer(s, w) for s, w, _, _ in arrivals)
            C = sum(np.outer(w, w) for _, w, _, _ in arrivals)
            for name, batch, inc in (("A", blocks, library_pairs(flib)),
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

    def test_arrival_holds_less_than_the_pair_blocks(self):
        # the refit sums the decoder terms into the thread's system buffer,
        # a few dozen pair blocks per GEMM, and the library keeps the terms
        # instead of their sum: the last arrival of the default stream, at
        # r = p = 20, peaks below one set of the r(r+1)/2 blocks of d x d,
        # where a running sum of them allocates a new set on each arrival
        tasks = squared_d40_tasks()
        state, _ = stream(init_state(HyperParams(), seed=0), tasks[:-1])
        tracemalloc.start()
        try:
            state, _ = learn_task(state, tasks[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d, r = state.flib.d, state.flib.basis.shape[1]
        assert r == 20
        assert peak < 8 * r * (r + 1) // 2 * d * d


class TestRelearn:
    # each task arrives once; the one refusal reads the same for a state
    # learned in memory and for a loaded one

    def test_seen_task_refused_state_unchanged(self):
        train, _ = small_corpus()
        task = train.tasks[0]
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        before = {name: getattr(state.flib, name).tobytes()
                  for name in ("decoder", "encoder", "acc_b_coords")}
        terms = terms_bytes(state.flib)
        with pytest.raises(ValueError, match=f"^task '{task.task_id}': already learned"):
            learn_task(state, task)
        assert list(state.per_task) == [t.task_id for t in train.tasks[:2]]
        assert state.flib.tasks_seen == len(state.per_task) == 2
        assert {name: getattr(state.flib, name).tobytes() for name in before} == before
        assert terms_bytes(state.flib) == terms

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
    """8 (2dp + T (p + d + d(d+1)/2) + R d(d+1)/2): the data file's size
    for `state`, with T tasks of which R are logistic tasks at a
    representative's slot."""
    flib = state.flib
    d, p = flib.d, flib.p
    tri = d * (d + 1) // 2
    R = sum(rec.rep_omega is not None for rec in state.per_task.values())
    return 8 * (2 * d * p + state.n_tasks * (p + d + tri) + R * tri)


def version_10_checkpoint(state, path):
    """The document and data arrays version 10 wrote for `state`, with no
    digest: "r" in the document, and in the data file the basis, the
    statistics in its coordinates (acc_A and acc_C as packed pair
    triangles) and the codes, but no task's w or Hessian.  `state` is also
    saved at `path`, so that `write_checkpoint` has a data file to
    replace."""
    save_state(state, path)
    payload, arrays = read_checkpoint(path)
    flib = state.flib
    ia, ja = np.triu_indices(flib.d)
    payload = {"version": 10, "d": flib.d, "r": flib.basis.shape[1], "seed": state.seed,
               "hyper": payload["hyper"], "per_task": payload["per_task"]}
    return payload, {"decoder": flib.decoder, "encoder": flib.encoder, "basis": flib.basis,
                     "acc_b": flib.acc_b_coords, "acc_M": flib.acc_M,
                     "acc_A": library_pairs(flib)[:, ia, ja],
                     "acc_C": engine.pack_pairs(flib.acc_C[None]),
                     "per_task.code": arrays["per_task.code"]}


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
        "basis": array(flib.basis), "acc_A": packed(library_pairs(flib), flib.basis.shape[1]),
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
        state, _ = stream(init_state(HyperParams(), seed=0), squared_d40_tasks())
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

    @pytest.mark.parametrize("version", [1, 2, 4, 5, 6, 7, 8, 9, 10])
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
        # data alone, as versions 6 and 7 had, version 9 each task's
        # single-task fit w after the codes, and version 10 the basis and
        # the library statistics in its coordinates, with no task's w or
        # Hessian; none is read
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        payload = version_5_document(state)
        flib = state.flib
        d, p, r = flib.d, flib.p, flib.basis.shape[1]
        assert r < p
        acc_A = np.zeros((p * d, p * d))
        acc_A[:r * d, :r * d] = full_from_pairs(library_pairs(flib), r)
        acc_b = np.zeros(p * d)
        acc_b[:r * d] = flib.acc_b_coords
        path = tmp_path / "state.json"
        if version >= 6:
            payload, arrays = version_10_checkpoint(state, path)
            if version == 9:
                arrays["per_task.w"] = [fit_single_task(t, state.hyper.ridge).w
                                        for t in train.tasks[:4]]
            data = write_checkpoint(path, payload, arrays)
            slots = slot_counts(state)
            for tid, rec in payload["per_task"].items():
                if version == 6:
                    del rec["slot"]
                elif version == 7:
                    rec["slots"] = slots[tid]
            if version == 7:
                reps = [{key: rep[key] for key in ("source_task", "admitted_at")}
                        for rep in version_5_document(state)["representatives"]]
                payload.update(p=p, tasks_seen=flib.tasks_seen, representatives=reps)
            elif version == 8:
                payload["representatives"] = list(state.mlib)
            payload["version"] = version
            if version in (6, 7, 8):
                payload["sha256"] = hashlib.sha256(data.read_bytes()).hexdigest()
                data.rename(engine._data_path(path, payload["sha256"]))
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
                   f"readable versions are [11]")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(path)
        # read past the version, no version before 11 has "rep_omegas" to
        # size the data; given the one this stream needs, versions 1-6 have
        # no slot, and the data files of versions 7-10, which hold the
        # library statistics, are a size other than the layout's
        payload["version"] = CHECKPOINT_VERSION
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape("checkpoint entry 'rep_omegas' is missing")):
            load_state(path)
        payload["rep_omegas"] = 0
        path.write_text(json.dumps(payload))
        slot = f"per_task[{next(iter(payload['per_task']))!r}].slot"
        refusal = (f"checkpoint entry {slot!r} is missing" if version <= 6
                   else f"data file {str(data_file(path))!r} holds")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(refusal)}"):
            load_state(path)

    def test_acc_C_in_full_refused(self, tmp_path):
        # the library statistics are folded again on load, not stored: a
        # data file that also holds acc_C, in full as versions 1 and 2 held
        # it, with a digest that matches, does not fit the layout
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        arrays["acc_C"] = state.flib.acc_C
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
            load_state(path)

    def test_full_acc_A_with_asymmetric_blocks_refused(self, tmp_path):
        # acc_A is neither stored nor held: a data file that also holds it
        # in full, as versions 1 and 2 held it, with one entry of block
        # (0, 1) one ulp off its mirror in block (1, 0), and a digest that
        # matches, does not fit the layout
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:4])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        d = state.flib.d
        r = state.flib.basis.shape[1]
        assert r >= 2
        full = full_from_pairs(library_pairs(state.flib), r)
        row, col = 2, d + 3     # entry (2, 3) of block (0, 1)
        full[row, col] = np.nextafter(full[row, col], np.inf)
        arrays["acc_A"] = full
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
            load_state(path)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_packed_omega_matches_triangle_encoding(self, tmp_path, loss):
        # the data file holds each task's code, w and the (a <= b) triangle
        # of its Hessian, in np.triu_indices order, in stream order, then
        # the triangle of each representative Hessian a logistic task's
        # fold used, and "rep_omegas" counts them
        train, _ = small_corpus()
        tasks, hp = train.tasks, small_hyper()
        if loss == "logistic":
            tasks, hp = logistic(tasks), small_hyper(ridge=1e-2)
        state, _ = stream(init_state(hp, seed=0), tasks)
        records = list(state.per_task.values())
        reps = [rec.rep_omega for rec in records if rec.rep_omega is not None]
        assert len(reps) == (5 if loss == "logistic" else 0)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        assert payload["rep_omegas"] == len(reps)
        ia, ja = np.triu_indices(state.flib.d)
        for name, rows in (("per_task.code", [rec.code for rec in records]),
                           ("per_task.w", [rec.w for rec in records]),
                           ("per_task.omega", [rec.omega[ia, ja] for rec in records]),
                           ("per_task.rep_omega", [h[ia, ja] for h in reps])):
            expected = np.array(rows).reshape(arrays[name].shape)
            assert arrays[name].tobytes() == expected.tobytes(), name

    def test_mid_stream_checkpoint_rebuilds_only_the_basis_pairs(self, tmp_path):
        # with r < p basis directions, the data file holds no statistics,
        # and the load folds the tasks into one term each, holding the
        # loaded Hessian itself, and d r entries of acc_b, from which the
        # refit assembles r(r+1)/2 pair blocks, bit for bit the saved
        # state's
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:3])
        flib = state.flib
        d, p, r = flib.d, flib.p, flib.basis.shape[1]
        assert 1 <= r < p
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        assert list(arrays) == ["decoder", "encoder", "per_task.code", "per_task.w",
                                "per_task.omega", "per_task.rep_omega"]
        assert "r" not in payload
        assert data_file(path).stat().st_size == data_bytes(state)
        loaded = load_state(path)
        assert all(h is rec.omega for (h, _), rec in zip(loaded.flib.decoder_terms,
                                                            loaded.per_task.values(), strict=True))
        assert library_pairs(loaded.flib).shape == (r * (r + 1) // 2, d, d)
        assert loaded.flib.acc_b_coords.shape == (d * r,)
        assert_same_state(loaded, state)

    def test_version_3_checkpoint_refused(self):
        # written while the statistics were held in the identity basis with
        # no "basis" entry, by saving the first 4 tasks of small_corpus()
        # under small_hyper() and seed 0; version 11 alone is read
        old = Path(__file__).parent / "data" / "checkpoint_v3_full_matrix.json"
        assert json.loads(old.read_text())["version"] == 3
        message = f"{old}: checkpoint version 3 is not readable; readable versions are [11]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(old)

    @pytest.mark.parametrize("where", ["omega", "rep_omega"])
    def test_asymmetric_omega_refused_on_save(self, tmp_path, where):
        # a packed triangle cannot hold a Hessian whose entry (1, 0) differs
        # from (0, 1), here by one ulp: the save refuses it and writes
        # nothing
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(ridge=1e-2), seed=0),
                          logistic(train.tasks[:3]))
        tid = train.tasks[2].task_id
        rec = state.per_task[tid]
        broken = getattr(rec, where).copy()
        broken[0, 1] = np.nextafter(broken[0, 1], np.inf)
        per_task = dict(state.per_task)
        per_task[tid] = dataclasses.replace(rec, **{where: broken})
        path = tmp_path / "state.json"
        with pytest.raises(ValueError, match="not symmetric bit for bit"):
            save_state(dataclasses.replace(state, per_task=per_task), path)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("key", ["decoder", "per_task.w", "per_task.omega", "per_task.code",
                                     "per_task.slot", "per_task.loss_kind"])
    def test_shape_disagreeing_with_d_and_p_named(self, tmp_path, key):
        # every shape follows from d, p, the number of tasks and
        # "rep_omegas": an array with an entry more or less leaves the data
        # file with a size other than those shapes need, and a slot or loss
        # that no arrival could have is refused by its entry, even with a
        # digest that matches
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        tid = train.tasks[1].task_id
        entry = payload["per_task"][tid]
        if key in ("per_task.slot", "per_task.loss_kind"):
            if key == "per_task.slot":
                entry["slot"] = len(state.mlib) + 1
            else:
                entry["loss_kind"] = "bogus"
            write_checkpoint(path, payload, arrays)
            match = repr(f"per_task[{tid!r}]" + key[len("per_task"):])
        else:
            grown = np.append(arrays[key], 0.0)
            arrays[key] = grown[:-2] if key == "per_task.code" else grown
            data = write_checkpoint(path, payload, arrays)
            match = f"data file {str(data)!r} holds"
        with pytest.raises(ValueError, match=re.escape(match)):
            load_state(path)

    def test_load_holds_the_pair_blocks_once(self, tmp_path):
        # a load folds the whole stream into terms that hold the loaded
        # Hessians themselves, and forms no pair block: its allocations
        # peak below one set of the r(r+1)/2 blocks of d x d, where a fold
        # into running sums of the blocks holds at least that
        state, _ = stream(init_state(HyperParams(), seed=0), squared_d40_tasks())
        d, r = state.flib.d, state.flib.basis.shape[1]
        assert r == 20
        path = tmp_path / "state.json"
        save_state(state, path)
        tracemalloc.start()
        try:
            loaded = load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_state(loaded, state)
        assert peak < 8 * r * (r + 1) // 2 * d * d

    @pytest.mark.parametrize("fault", ["above_the_logistic_tasks", "negative", "one_short",
                                       "one_extra"])
    def test_rep_omegas_disagreeing_with_the_slots_named(self, tmp_path, fault):
        # "rep_omegas" sizes the data file before it is read: a count
        # outside 0 to the number of logistic tasks is refused by name
        # unread, and one the replay of the slots does not give, with the
        # data file sized to match and a digest that matches, is refused
        # by name once the slots are replayed
        train, _ = small_corpus()
        tasks, hp = train.tasks[:4], small_hyper()
        if fault in ("one_short", "one_extra"):
            tasks, hp = logistic(tasks), small_hyper(ridge=1e-2)
        state, _ = stream(init_state(hp, seed=0), tasks)
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        reps = arrays["per_task.rep_omega"]
        if fault == "above_the_logistic_tasks":
            payload["rep_omegas"] = 1
            message = "checkpoint entry 'rep_omegas': 1, expected 0 to the 0 logistic tasks"
        elif fault == "negative":
            payload["rep_omegas"] = -1
            message = "checkpoint entry 'rep_omegas': -1, expected 0 to the 0 logistic tasks"
        else:
            # the first task sits at the outlier slot, so there is room for
            # one more Hessian than the three the slots give
            assert len(reps) == 3
            arrays["per_task.rep_omega"] = reps[:2] if fault == "one_short" else np.vstack(
                [reps, reps[:1]])
            payload["rep_omegas"] = len(arrays["per_task.rep_omega"])
            message = (f"checkpoint entry 'rep_omegas': {payload['rep_omegas']}, expected one "
                       f"for each logistic task at a representative's slot")
        write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
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
        for name in ("decoder", "encoder", "basis", "acc_b_coords"):
            assert getattr(resumed.flib, name).tobytes() == getattr(whole.flib, name).tobytes()
        assert terms_bytes(resumed.flib) == terms_bytes(whole.flib)
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
        # Hessian is not the task's, and the checkpoint stores it beside the
        # task's, both as packed triangles; the folds must keep the pair
        # blocks symmetric bit for bit (a matrix product of the two Hessians
        # leaves them one ulp asymmetric from the fifth arrival on)
        tasks = logistic_d50_tasks()
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

    @pytest.mark.parametrize("case", ["squared_d40", "logistic_d50", "dead_learner"])
    def test_every_arrival_round_trips_and_continues(self, tmp_path, case):
        # saved after every arrival: the data file has the size the layout
        # formula gives, the load folds the statistics back bit for bit
        # (every field, w, omega, the basis and all four accumulators
        # included), saves back to the same bytes, and learning the next
        # task from it gives the uninterrupted stream's next state
        if case == "squared_d40":
            tasks, hp = squared_d40_tasks(), HyperParams()
        elif case == "logistic_d50":
            tasks, hp = logistic_d50_tasks(), HyperParams(p=20, ridge=1e-2)
        else:
            train, _ = small_corpus(clusters=3, tasks_per_cluster=3, d=12)
            first = train.tasks[0]
            tasks = [dataclasses.replace(first, targets=np.zeros_like(first.targets))]
            tasks += train.tasks[1:]
            hp = HyperParams(p=6)
        states = [init_state(hp, seed=0)]
        for task in tasks:
            states.append(learn_task(states[-1], task)[0])
        flib = states[-1].flib
        # the basis ends full at p = 20, one direction per logistic task,
        # and empty
        assert flib.basis.shape[1] == {"squared_d40": 20, "logistic_d50": 8,
                                       "dead_learner": 0}[case]
        if case == "logistic_d50":
            assert sum(rec.rep_omega is not None for rec in states[-1].per_task.values()) == 7
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        for t, state in enumerate(states[1:], start=1):
            where = f"arrival {t}"
            save_state(state, path)
            assert data_file(path).stat().st_size == data_bytes(state), where
            loaded = load_state(path)
            assert_same_state(loaded, state, where)
            save_state(loaded, again)
            assert again.read_bytes() == path.read_bytes(), where
            assert data_file(again).read_bytes() == data_file(path).read_bytes(), where
            if t < len(tasks):
                assert_same_state(learn_task(loaded, tasks[t])[0], states[t + 1], where)

    @pytest.mark.parametrize("where", ["omega", "per_task"])
    def test_array_of_wrong_size_named(self, tmp_path, where):
        # one float64 short of what the shape needs, with a digest that
        # matches: the data file is refused by its size
        train, _ = small_corpus()
        state, _ = stream(init_state(small_hyper(), seed=0), train.tasks[:2])
        path = tmp_path / "state.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        name = "per_task.omega" if where == "omega" else "per_task.code"
        arrays[name] = arrays[name].reshape(-1)[:-1]
        data = write_checkpoint(path, payload, arrays)
        with pytest.raises(ValueError, match=re.escape(f"data file {str(data)!r} holds")):
            load_state(path)

    @pytest.mark.parametrize("key, value", [("decoder", np.nan), ("per_task.omega", np.inf),
                                            ("per_task.code", -np.inf), ("per_task.w", np.nan)])
    def test_non_finite_array_named(self, tmp_path, key, value):
        # a NaN or infinite entry would reach every prediction or, through
        # the folds, every refit
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
        # empty and the statistics hold no terms, in the saved state and in
        # the one the load folds again
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
            assert state.flib.decoder_terms == ()
            assert state.flib.acc_b_coords.shape == (0,)
        path, again = tmp_path / "state.json", tmp_path / "again.json"
        save_state(state, path)
        payload, arrays = read_checkpoint(path)
        assert payload["rep_omegas"] == 0 and not arrays["per_task.code"].any()
        assert data_file(path).stat().st_size == data_bytes(state)
        loaded = load_state(path)
        assert loaded.flib.basis.shape == (6, 0) and loaded.flib.decoder_terms == ()
        assert_same_state(loaded, state)
        save_state(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert data_file(again).read_bytes() == data_file(path).read_bytes()

    @pytest.mark.parametrize("case", [
        "seed", "hyper", "per_task", "d", "rep_omegas", "sha256",
        "hyper.mu", "per_task[tid].loss_kind",
        "per_task=[]", "per_task[tid]=[]", "hyper=null", "d=8.5", "rep_omegas='0'",
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
