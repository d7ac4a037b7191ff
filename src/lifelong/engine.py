"""Streaming orchestration: encode each arriving task against both
libraries, solve the representative assignment, refresh the libraries,
and grow the model library when the outlier slot wins.

Per task the alternation fixes everything computed at arrival (decoder,
representative half-Hessians, and the virtual-slot cost) and block-wise
minimises over the code and the assignment until it reaches its exact
fixed point.  Each block is minimised exactly: feature-sign search returns
the unique minimiser of the strongly convex code problem to round-off, and
the assignment is the closed-form vertex of its cheapest slot.  Block
descent therefore makes the traced objective non-increasing and never
returns to a slot it left: the loop stops when the cheapest slot repeats,
within K + 2 rounds for K representatives, with no cap or tolerance.

States are immutable snapshots; learning produces a new state, so reads
of an old snapshot stay valid while the stream advances.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .assignment import (Assignment, outlier_weight, representative_distances,
                         solve_assignment)
from .libraries import (FeatureLibrary, _symmetric_bits, admit_representative,
                        bump_tasks_seen, empty_library, fold_decoder, fold_encoder,
                        init_libraries, update_decoder, update_encoder)
from .sparse_code import CodeProblem, Representative, composite_objective, encode_task
from .tasks import (ConvergenceError, TaskData, fit_single_task, hessian_at, json_entry,
                    read_json, refuse_unknown)


@dataclass(frozen=True)
class HyperParams:
    """Knobs of the lifelong learner; defaults target the synthetic disjoint
    benchmark at standardised-target scale.  The assignment has no l1 weight
    (constant on the simplex), and admission is always on."""

    lambda1: float = 0.001    # l1 weight on codes
    lambda2: float = 0.05     # representative coupling weight
    gamma: float = 0.25       # outlier-weight scale
    mu: float = 1e-3          # ridge on both library refits
    ridge: float = 1e-4       # ridge on single-task fits
    p: int = 20               # code length
    phi: str = "identity"     # "identity" | "tanh"

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "gamma", "mu", "ridge"):
            value = getattr(self, name)
            # a JSON number, as a config file can hold it; a bool is none
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # an exact comparison: an integer past float range is refused too
            if not 0 <= value <= float(np.finfo(float).max):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.gamma == 0:
            raise ValueError("gamma must be > 0")
        # a bool is no code length, and a numpy integer is no JSON checkpoint entry
        if type(self.p) is not int or self.p < 1:
            raise ValueError(f"p must be an int >= 1, got {self.p!r}")
        activation_pair(self.phi)

    @classmethod
    def from_json(cls, values: dict, document: str) -> "HyperParams":
        """The settings of the JSON object `values`; a setting it leaves out
        takes its default.  A key that is not a field, and a value that
        HyperParams refuses, is refused as `document` entry 'hyper.<key>'."""
        refuse_unknown(values, cls, document, "hyper.")
        for key, value in values.items():
            # each setting alone, so that a refusal names its entry
            try:
                cls(**{key: value})
            except ValueError as exc:
                raise ValueError(f"{document} entry {'hyper.' + key!r}: {exc}") from None
        return cls(**values)


def activation_pair(name: str) -> tuple[Callable, Callable]:
    if name == "identity":
        return (lambda v: v, lambda v: v)
    if name == "tanh":
        limit = 1.0 - 1e-6
        return (np.tanh, lambda v: np.arctanh(np.clip(v, -limit, limit)))
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class PerTaskRecord:
    """A learned task: exactly what its checkpoint entry stores, the inputs
    of its library folds.  `slot` is the assignment's, the outlier slot
    being the number of representatives admitted before the task; `w` and
    `omega` are the task's single-task fit and half-Hessian, and
    `rep_omega` is the Hessian of a logistic task at its representative's
    model, which the decoder fold pairs with that representative when the
    slot is not the outlier slot; None otherwise, as for squared loss, whose
    representative term carries `omega` itself.  Every array is read-only,
    since a representative's code is its task's."""

    code: np.ndarray
    slot: int
    loss_kind: str
    w: np.ndarray
    omega: np.ndarray
    rep_omega: Optional[np.ndarray] = None


@dataclass(frozen=True)
class TaskOutcome:
    task_id: str
    objective_trace: tuple[float, ...]
    rounds: int
    admitted: bool
    assignment: Assignment
    code: np.ndarray
    reps_total: int
    decoder_delta: float
    encoder_delta: float
    distances: tuple[float, ...] = ()   # final-round representative distances
    outlier_cost: float = float("nan")


@dataclass(frozen=True)
class EngineState:
    """The model library `mlib` is the representatives' task ids, in
    admission order, each a key of `per_task`, the learned tasks in stream
    order."""

    hyper: HyperParams
    seed: int
    flib: Optional[FeatureLibrary] = None
    mlib: tuple[str, ...] = ()
    per_task: dict = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        return len(self.per_task)


def init_state(hyper: HyperParams, seed: int) -> EngineState:
    """Fresh engine; libraries are materialised when the first task arrives."""
    return EngineState(hyper=hyper, seed=seed)


def learn_task(state: EngineState, data: TaskData) -> tuple[EngineState, TaskOutcome]:
    """Learn one arriving task; `state` itself is left unchanged.  Each task
    arrives once: a task id the state has learned, in memory or loaded,
    raises ValueError.  Errors are re-raised with the task id prefixed, as
    the same type where that type takes a message alone."""
    if data.task_id in state.per_task:
        raise ValueError(f"task {data.task_id!r}: already learned; each task arrives once")
    try:
        return _learn_task(state, data)
    except Exception as exc:
        message = f"task {data.task_id!r}: {exc}"
        try:
            prefixed = type(exc)(message)
        except TypeError:   # only the constructor's: the arrival's TypeError stays one
            prefixed = RuntimeError(message)
        raise prefixed from exc


def _learn_task(state: EngineState, data: TaskData) -> tuple[EngineState, TaskOutcome]:
    hp = state.hyper
    phi, phi_inv = activation_pair(hp.phi)

    flib = state.flib
    if flib is None:
        flib = init_libraries(data.dim, hp.p, state.seed)
    if data.dim != flib.d:
        raise ValueError(f"feature dimension {data.dim} does not match the library ({flib.d})")
    prev_encoder = flib.encoder

    single = fit_single_task(data, hp.ridge)
    w, omega = single.w, single.omega
    decoder = flib.decoder
    enc_image = np.asarray(phi(flib.encoder @ w), dtype=float)

    code, assignment, trace, rounds, rep_hessians, dists, d0 = _alternate(
        state, data, w, omega, decoder, enc_image)
    rep_omega = (rep_hessians[assignment.slot]
                 if data.loss_kind == "logistic" and not assignment.picks_outlier else None)
    for a in (code, w, omega, rep_omega):
        if a is not None:
            a.setflags(write=False)
    record = PerTaskRecord(code=code, slot=assignment.slot, loss_kind=data.loss_kind,
                           w=w, omega=omega, rep_omega=rep_omega)

    reps_used = _fold_reps(state.per_task, state.mlib, record)
    flib = update_decoder(flib, code, omega, reps_used, hp.lambda2, w, hp.mu)
    flib = update_encoder(flib, code, w, phi_inv, hp.mu)
    decoder_delta = float(np.linalg.norm(flib.decoder - decoder))
    encoder_delta = float(np.linalg.norm(flib.encoder - prev_encoder))
    flib = bump_tasks_seen(flib)

    mlib, admitted = admit_representative(state.mlib, code, assignment, data.task_id)

    per_task = dict(state.per_task)
    per_task[data.task_id] = record
    outcome = TaskOutcome(
        task_id=data.task_id,
        objective_trace=tuple(trace),
        rounds=rounds,
        admitted=admitted,
        assignment=assignment,
        code=code,
        reps_total=len(mlib),
        decoder_delta=decoder_delta,
        encoder_delta=encoder_delta,
        distances=tuple(float(v) for v in dists),
        outlier_cost=float(d0),
    )
    new_state = dataclasses.replace(state, flib=flib, mlib=mlib, per_task=per_task)
    return new_state, outcome


def _fold_reps(per_task: dict, mlib: tuple[str, ...], rec: PerTaskRecord) -> tuple:
    """The representative terms of the decoder fold of the task `rec`,
    given the learned tasks and the model library before it: none at the
    outlier slot, else the representative's code with weight 1 and the
    task's Hessian at it, `rec.omega` itself for squared loss (the same
    array, so that `libraries.fold_decoder` sums its weights into the
    task's term)."""
    if rec.slot == len(mlib):
        return ()
    return ((per_task[mlib[rec.slot]].code,
             rec.omega if rec.rep_omega is None else rec.rep_omega, 1.0),)


def _alternate(state: EngineState, data: TaskData, w, omega, decoder, enc_image):
    """Block-descent rounds over (code, assignment) with the arrival-time
    decoder, representative Hessians and virtual-slot cost held fixed,
    run to the exact fixed point.

    With no representatives the code solve is the whole alternation.  At
    lambda2 = 0 every slot costs nothing and the code ignores the
    representatives: the assignment is slot 0 and round 1 already is the
    fixed point.  Otherwise the loop stops when the cheapest slot repeats,
    since the next round would reproduce this code and assignment bit for
    bit.  Let V(z) = min_s F(s, z): a change of slot either lowers V
    strictly or, on an exact cost tie, moves to a lower slot index, so no
    slot the loop has left comes back and it stops within K + 2 rounds.  A
    slot that does come back can only be round-off, and raises
    `ConvergenceError`."""
    hp = state.hyper
    codes = [state.per_task[tid].code for tid in state.mlib]
    K = len(codes)

    if data.loss_kind == "squared":
        # the half-Hessian of squared loss does not depend on the point
        rep_hessians = [omega] * K
    else:
        rep_hessians = [hessian_at(data, decoder @ s_k) for s_k in codes]
    dist_pairs = list(zip(codes, rep_hessians))

    weights = np.full(K, 1.0 / (K + 1))   # round 1: uniform over the K + 1 slots
    assignment = Assignment(slot=K, slots=K + 1)   # with K = 0, the outlier slot
    dists: np.ndarray = np.zeros(0)
    d0 = float("nan")
    trace: list[float] = []
    slots: list[int] = []
    while True:
        reps = tuple(
            Representative(code=codes[k], omega=rep_hessians[k], weight=float(weights[k]))
            for k in range(K))
        prob = CodeProblem(w=w, omega=omega, decoder=decoder, encoder_image=enc_image,
                           reps=reps, lambda1=hp.lambda1, lambda2=hp.lambda2)
        code = encode_task(prob)
        # reconstruction, encoder coupling and l1, without representative terms
        base = composite_objective(dataclasses.replace(prob, lambda2=0.0), code)
        if K == 0:
            trace.append(base)
            break

        dists = representative_distances(decoder, code, dist_pairs)
        if not slots:
            # fixed per task: the virtual slot's cost is a constant of the
            # alternation, which keeps the traced objective monotone; at
            # K = 1 the log ratio is 0, so a fixed log 2 breaks the tie
            d0 = (hp.gamma * float(np.log(2.0)) if K == 1 and dists.sum() != 0.0
                  else outlier_weight(dists, hp.gamma))
        assignment = solve_assignment(dists, d0, hp.lambda2)
        slot = assignment.slot
        weights = (np.arange(K) == slot).astype(float)
        trace.append(base + hp.lambda2 * float(dists[slot] if slot < K else d0))
        if hp.lambda2 == 0.0 or (slots and slot == slots[-1]):
            break
        if slot in slots:
            raise ConvergenceError(
                f"the alternation returned to slot {slot} after leaving it "
                f"(slots by round: {slots + [slot]})")
        slots.append(slot)
    return code, assignment, trace, len(trace), rep_hessians, dists, d0


def _record(state: EngineState, task_id: str) -> PerTaskRecord:
    if state.flib is None or task_id not in state.per_task:
        raise KeyError(f"unknown task id {task_id!r}")
    return state.per_task[task_id]


def reconstruct_model(state: EngineState, task_id: str) -> np.ndarray:
    """Current-decoder reconstruction of the task's parameter vector."""
    rec = _record(state, task_id)
    return state.flib.decoder @ rec.code


def predict(state: EngineState, task_id: str, X: np.ndarray) -> np.ndarray:
    """Raw scores X' (D s) for the task; classification labels are their sign."""
    rec = _record(state, task_id)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != state.flib.d:
        raise ValueError(f"X must be {state.flib.d} x m")
    return X.T @ reconstruct_model(state, task_id)


def predict_labels(state: EngineState, task_id: str, X: np.ndarray) -> np.ndarray:
    """Sign predictions at threshold 0 (ties go to +1); classification tasks only."""
    rec = _record(state, task_id)
    if rec.loss_kind != "logistic":
        raise ValueError(f"task {task_id!r} is not a classification task")
    scores = predict(state, task_id, X)
    return np.where(scores >= 0.0, 1.0, -1.0)


def reconstructed_weights(state: EngineState) -> tuple[list[str], np.ndarray]:
    """All learned tasks' reconstructions as columns, in learning order."""
    ids = list(state.per_task.keys())
    if not ids:
        raise ValueError("no tasks learned yet")
    cols = np.column_stack([reconstruct_model(state, tid) for tid in ids])
    return ids, cols


# checkpoint i/o.  Version 11 is two files: a JSON document of the
# checkpoint's integers and strings (its d, seed, settings, each task's
# loss and slot, and "rep_omegas", a count defined below) and, beside it,
# a data file of every float64 array as raw little-endian bytes, one after
# another in a fixed order with no header.  `_checked_layout` gives that
# order, and every shape in it follows from d, hyper.p, the number of
# tasks and "rep_omegas", so the document stores no layout.  Nor does it
# store what follows from other entries: the tasks seen are the per-task
# entries, p is hyper.p, and the model library is replayed from the slots
# and codes, in stream order, by `admit_representative`, the rule that
# built it.  Likewise the library statistics (basis, the decoder terms,
# acc_b, acc_M, acc_C) are not stored: each follows from per-task folds, so
# the data file holds each task's fold inputs, its code, w and Hessian
# omega, and after that replay the load folds them all, in stream order,
# with one call each of `fold_decoder` and `fold_encoder`.  The decoder
# terms hold the loaded Hessians themselves, the arrays the records hold,
# with their pair weights, so the load forms no pair block; what it
# computes is the basis, the weights and the small sums acc_b, acc_M and
# acc_C.  Only the decoder and encoder of the last solves are stored, so a
# load solves nothing.  The rebuilt statistics equal the saved state's bit
# for bit on the numpy and BLAS that saved it: the folds' products are
# computed again, not read.
# A logistic task at a representative's slot also stores the Hessian at
# the representative's model that its fold used (squared loss uses omega
# itself).  Which tasks those are is known only from the codes, since a
# zero code at the outlier slot admits nothing, so the document stores
# their number, "rep_omegas", which sizes the data file before it is read,
# and the replay refuses a count other than the one the slots give.  A
# data file holds 8 (2dp + T (p + d + d(d+1)/2) + R d(d+1)/2) bytes for T
# tasks and R = "rep_omegas": 224,000 at d = 40, p = 20, T = 30, R = 0.
# Each Hessian is stored as its (a <= b) triangle, in np.triu_indices
# order.  Hessians are symmetric bit for bit by construction
# (`tasks.hessian_at`), yet a save refuses one that differs from its
# transpose, which packing would change.  The document's "sha256" is one
# digest over `json.dumps` of the rest of the document followed by the
# data, so it covers every stored fact.

CHECKPOINT_VERSION = 11


def pack_pairs(blocks: np.ndarray) -> np.ndarray:
    """The (a <= b) triangle of each of the square matrices `blocks`, one
    row per matrix; refuses matrices not symmetric bit for bit, which
    packing would change."""
    if not _symmetric_bits(blocks):
        raise ValueError("Hessians are not symmetric bit for bit")
    ia, ja = np.triu_indices(blocks.shape[-1])
    return blocks[:, ia, ja]


def unpack_pairs(packed: np.ndarray, d: int) -> np.ndarray:
    """The d x d matrices whose triangles `pack_pairs` returned."""
    ia, ja = np.triu_indices(d)
    blocks = np.empty((packed.shape[0], d, d))
    blocks[:, ia, ja] = packed
    blocks[:, ja, ia] = packed
    return blocks


def _checked_layout(payload: dict, p: int) -> list[tuple[str, tuple[int, ...]]]:
    """The names and shapes, in order, of the arrays in the data file of
    the checkpoint document `payload` at code length `p`: the decoder and
    encoder, then the per-task codes, w and packed omega stacked, then the
    packed representative Hessians.  Refuses, by name, an entry they
    depend on that is missing or of the wrong type, a d below 1, a
    per-task entry with an unknown loss or a slot that is not a JSON
    integer, and a "rep_omegas" outside 0 to the number of logistic
    tasks."""
    d, rep_omegas = (json_entry(payload, key, int, key, "checkpoint")
                     for key in ("d", "rep_omegas"))
    if d < 1:
        raise ValueError(f"checkpoint entry 'd': {d}, expected at least 1")
    per_task = json_entry(payload, "per_task", dict, "per_task", "checkpoint")
    for tid in per_task:
        key = f"per_task[{tid!r}]"
        rec = json_entry(per_task, tid, dict, key, "checkpoint")
        loss = json_entry(rec, "loss_kind", str, f"{key}.loss_kind", "checkpoint")
        if loss not in ("squared", "logistic"):
            raise ValueError(f"checkpoint entry {key + '.loss_kind'!r}: unknown loss {loss!r}")
        json_entry(rec, "slot", int, f"{key}.slot", "checkpoint")
    logistic = sum(rec["loss_kind"] == "logistic" for rec in per_task.values())
    if not 0 <= rep_omegas <= logistic:
        raise ValueError(f"checkpoint entry 'rep_omegas': {rep_omegas}, expected 0 to the "
                         f"{logistic} logistic tasks")
    T, tri = len(per_task), d * (d + 1) // 2
    return [("decoder", (d, p)), ("encoder", (p, d)), ("per_task.code", (T, p)),
            ("per_task.w", (T, d)), ("per_task.omega", (T, tri)),
            ("per_task.rep_omega", (rep_omegas, tri))]


def _checkpoint_payload(state: EngineState) -> tuple[dict, list[np.ndarray]]:
    """The checkpoint's JSON document and the arrays of its data file, in
    order, as little-endian float64; the document's "sha256" is the
    `_digest` of the rest of it and the arrays."""
    flib = state.flib
    records = list(state.per_task.values())
    rep_omegas = [rec.rep_omega for rec in records if rec.rep_omega is not None]
    payload = {
        "version": CHECKPOINT_VERSION,
        "d": flib.d,
        "rep_omegas": len(rep_omegas),
        "seed": state.seed,
        "hyper": dataclasses.asdict(state.hyper),
        "per_task": {tid: {"loss_kind": rec.loss_kind, "slot": rec.slot}
                     for tid, rec in state.per_task.items()},
    }
    arrays = {
        "decoder": flib.decoder,
        "encoder": flib.encoder,
        "per_task.code": [rec.code for rec in records],
        "per_task.w": [rec.w for rec in records],
        "per_task.omega": pack_pairs(np.array([rec.omega for rec in records])),
        "per_task.rep_omega": pack_pairs(np.reshape(rep_omegas, (-1, flib.d, flib.d))),
    }
    pieces = [np.ascontiguousarray(np.reshape(arrays[name], shape), dtype="<f8")
              for name, shape in _checked_layout(payload, state.hyper.p)]
    payload["sha256"] = _digest(payload, pieces)
    return payload, pieces


def _digest(payload: dict, pieces) -> str:
    """The SHA-256 of `json.dumps` of the checkpoint document `payload`
    less its "sha256", followed by the data `pieces`."""
    digest = hashlib.sha256(json.dumps({key: value for key, value in payload.items()
                                        if key != "sha256"}).encode("ascii"))
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest()


def _data_path(path: Path, digest: str) -> Path:
    """The data file of the checkpoint at `path` whose document has "sha256" `digest`."""
    return path.with_name(f"{path.stem}.{digest[:16]}.bin")


def _replace(path: Path, pieces) -> None:
    """Write `pieces` to a dot-prefixed temp file beside `path`, sync it to
    disk and move it into place, so a write that fails part-way leaves
    `path` as it was."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_state(state: EngineState, path) -> None:
    """Checkpoint: the decoder and encoder plus each task's code, slot
    and library fold inputs, in two files (format version 11; see the codec
    notes above).

    `path` must end in `.json`, and ValueError, naming it, refuses any
    other: its stem then names one checkpoint, whose data files no save to
    another path removes.  `path` gets a JSON document, byte for byte
    `json.dumps` of the checkpoint's integers and strings, which is ASCII:
    each task's assignment slot among them, and one SHA-256 over the rest
    of the document and the data.  Beside it, `<stem>.<first 16 hex
    digits of that digest>.bin` gets every float64 array as raw
    little-endian bytes, in `_checked_layout`'s order.  The two files are
    moved together.  The name follows from the content, so two saves of
    one state write the same bytes.  Each file is written to a dot-prefixed
    temp file, synced to disk and moved into place with `os.replace`, the
    data file first; only then are older data files of `path`'s stem
    removed, so a write that fails part-way leaves the directory as it
    was.  The files hold the whole engine state: `load_state` returns a
    state equal to `state` field for field, bit for bit, which continues
    the stream exactly as `state` would.
    """
    path = Path(path)
    if path.suffix != ".json":
        raise ValueError(f"{path}: a checkpoint path must end in .json")
    if state.flib is None:
        raise ValueError("cannot checkpoint an engine that has seen no tasks")
    payload, pieces = _checkpoint_payload(state)
    data_path = _data_path(path, payload["sha256"])
    data_is_new = not data_path.exists()
    _replace(data_path, pieces)
    try:
        _replace(path, [json.dumps(payload).encode("ascii")])
    except BaseException:
        if data_is_new:
            data_path.unlink(missing_ok=True)
        raise
    stale = re.compile(re.escape(path.stem) + r"\.[0-9a-f]{16}\.bin")
    for old in path.parent.iterdir():
        if old.name != data_path.name and stale.fullmatch(old.name):
            old.unlink(missing_ok=True)


def _read_data(data_path: Path, payload: dict, layout) -> dict:
    """The arrays of `layout` by name, read from the data file, which must
    hold exactly their bytes and, with the document `payload`, have its
    `_digest`; an array that is NaN or infinite is refused by name."""
    sizes = [int(np.prod(shape)) for _, shape in layout]
    try:
        # the size first, so that a padded file is refused unread
        size = data_path.stat().st_size
        if size != 8 * sum(sizes):
            raise ValueError(f"data file {str(data_path)!r} holds {size} bytes, expected "
                             f"{8 * sum(sizes)} from the checkpoint's d, hyper.p, tasks and "
                             f"rep_omegas")
        raw = data_path.read_bytes()
    except FileNotFoundError:
        raise ValueError(f"data file {str(data_path)!r} is missing") from None
    if _digest(payload, [raw]) != payload["sha256"]:
        raise ValueError(f"data file {str(data_path)!r} and the document: their SHA-256 "
                         f"differs from checkpoint entry 'sha256'")
    flat = np.frombuffer(raw, dtype="<f8")
    arrays, at = {}, 0
    for (name, shape), size in zip(layout, sizes):
        arrays[name] = flat[at:at + size].reshape(shape).astype(float)
        at += size
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"checkpoint array {name!r}: entries that are NaN or infinite")
    return arrays


def load_state(path) -> EngineState:
    """The state `save_state` wrote.  ValueError, naming the file, refuses
    any version but 11 (the README says what versions 1-10 stored); an
    entry that is missing or of the wrong type (integers must be JSON
    integers), a `hyper` entry that `HyperParams.from_json` refuses, a
    per-task entry with an unknown loss and a "rep_omegas" outside 0 to
    the number of logistic tasks.  The data file's name comes from
    `path`'s stem and the stored digest, never from the document.  It is
    refused, by name, when it is missing or when its size is not what the
    arrays' shapes need (they follow from d, hyper.p, the number of tasks
    and "rep_omegas"), and with the document when their SHA-256 differs
    from the stored one: an edit to any entry is refused.  So are an array
    that is not finite, and, found as the model library is replayed and
    the library statistics are folded again in stream order (see the codec
    notes above), a slot above the representatives admitted before its
    task and a "rep_omegas" other than the number of logistic tasks at a
    representative's slot."""
    path = Path(path)
    payload = read_json(path)
    try:
        return _load_state(path, payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_state(path: Path, payload) -> EngineState:
    if not isinstance(payload, dict):
        raise ValueError("not a checkpoint: the document is not a JSON object")
    version = payload.get("version", 1)
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version!r} is not readable; "
                         f"readable versions are {[CHECKPOINT_VERSION]}")
    values = json_entry(payload, "hyper", dict, "hyper", "checkpoint")
    hyper = HyperParams.from_json(values, "checkpoint")
    # a checkpoint stores every setting, so that none is read as a default
    missing = [f.name for f in dataclasses.fields(HyperParams) if f.name not in values]
    if missing:
        raise ValueError(f"checkpoint entry {'hyper.' + missing[0]!r} is missing")
    layout = _checked_layout(payload, hyper.p)
    seed = json_entry(payload, "seed", int, "seed", "checkpoint")
    digest = json_entry(payload, "sha256", str, "sha256", "checkpoint")
    if not re.fullmatch("[0-9a-f]{64}", digest):
        raise ValueError(f"checkpoint entry 'sha256': {digest!r} is not 64 hex digits")
    arrays = _read_data(_data_path(path, digest), payload, layout)
    d = payload["d"]
    codes, ws = arrays["per_task.code"], arrays["per_task.w"]
    omegas = unpack_pairs(arrays["per_task.omega"], d)
    rep_omegas = unpack_pairs(arrays["per_task.rep_omega"], d)
    for a in (codes, ws, omegas, rep_omegas):
        a.setflags(write=False)
    miscount = ValueError(f"checkpoint entry 'rep_omegas': {len(rep_omegas)}, expected one "
                          f"for each logistic task at a representative's slot")
    mlib, records, folds, used = (), {}, [], 0
    for (tid, rec), code, w, omega in zip(payload["per_task"].items(), codes, ws, omegas):
        try:
            assignment = Assignment(slot=rec["slot"], slots=len(mlib) + 1)
        except ValueError as exc:
            raise ValueError(f"checkpoint entry {f'per_task[{tid!r}].slot'!r}: {exc}, one more "
                             f"than the representatives admitted before the task") from None
        rep_omega = None
        if rec["loss_kind"] == "logistic" and not assignment.picks_outlier:
            if used == len(rep_omegas):
                raise miscount
            rep_omega, used = rep_omegas[used], used + 1
        record = PerTaskRecord(code=code, slot=rec["slot"], loss_kind=rec["loss_kind"], w=w,
                               omega=omega, rep_omega=rep_omega)
        folds.append((code, omega, _fold_reps(records, mlib, record), w))
        mlib, _ = admit_representative(mlib, code, assignment, tid)
        records[tid] = record
    if used != len(rep_omegas):
        raise miscount
    # the folds of learning, without the solves: the stored halves are the
    # last solves' results
    flib = fold_decoder(empty_library(arrays["decoder"], arrays["encoder"]), folds,
                        hyper.lambda2)
    flib = fold_encoder(flib, [(rec.code, rec.w) for rec in records.values()],
                        activation_pair(hyper.phi)[1])
    flib = dataclasses.replace(flib, tasks_seen=len(records))
    return EngineState(hyper=hyper, seed=seed, flib=flib, mlib=mlib, per_task=records)
