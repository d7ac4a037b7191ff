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
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .assignment import (Assignment, outlier_weight, representative_distances,
                         solve_assignment)
from .libraries import (READABLE_VERSIONS, FeatureLibrary, ModelLibrary,
                        admit_representative, bump_tasks_seen,
                        decode_array, decode_shaped, encode_array,
                        init_libraries, library_from_dict, library_to_dict,
                        update_decoder, update_encoder)
from .sparse_code import CodeProblem, Representative, encode_task
from .tasks import ConvergenceError, TaskData, fit_single_task, hessian_at


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
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.gamma == 0:
            raise ValueError("gamma must be > 0")
        # a bool is no code length, and a numpy integer is no JSON checkpoint entry
        if type(self.p) is not int or self.p < 1:
            raise ValueError(f"p must be an int >= 1, got {self.p!r}")
        if self.phi not in ("identity", "tanh"):
            raise ValueError(f"unknown activation {self.phi!r}")


def drop_retired(settings: dict, retired: dict) -> dict:
    """`settings` less the keys in `retired`; each maps to a test `(value,
    settings) -> bool` that a saved value must pass, or ValueError is raised."""
    for key, neutral in retired.items():
        if key in settings and not neutral(settings[key], settings):
            raise ValueError(f"retired setting {key!r} = {settings[key]!r} would change the run")
    return {k: v for k, v in settings.items() if k not in retired}


# no value of the replaced iterative solvers' settings or of alpha moves a
# decision; a run without admission matches only at lambda2 = 0
RETIRED_HYPER_KEYS = {
    **dict.fromkeys(("beta", "rho", "admm_tol", "admm_max_iter", "coder_tol",
                     "coder_max_iter", "max_outer", "outer_tol", "alpha"), lambda *_: True),
    "admission_enabled": lambda value, settings: value is True or (
        value is False and settings.get("lambda2", HyperParams.lambda2) == 0),
}


def hyper_from_dict(values: dict) -> HyperParams:
    """HyperParams from saved settings less the retired keys; others raise."""
    return HyperParams(**drop_retired(values, RETIRED_HYPER_KEYS))


def activation_pair(name: str) -> tuple[Callable, Callable]:
    if name == "identity":
        return (lambda v: v, lambda v: v)
    if name == "tanh":
        limit = 1.0 - 1e-6
        return (np.tanh, lambda v: np.arctanh(np.clip(v, -limit, limit)))
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class PerTaskRecord:
    """A learned task: exactly what its checkpoint entry stores."""

    code: np.ndarray
    assignment: Assignment
    w: np.ndarray
    loss_kind: str


@dataclass(frozen=True)
class UpdateContribution:
    """Raw inputs of one library update, kept so incremental accumulators
    can be replayed against a batch recomputation."""

    code: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    reps_used: tuple[tuple[np.ndarray, np.ndarray, float], ...]
    lambda2: float


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
    contribution: UpdateContribution
    distances: tuple[float, ...] = ()   # final-round representative distances
    outlier_cost: float = float("nan")


@dataclass(frozen=True)
class EngineState:
    hyper: HyperParams
    seed: int
    flib: Optional[FeatureLibrary] = None
    mlib: ModelLibrary = field(default_factory=ModelLibrary)
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
    w = single.w
    omega = single.omega
    decoder = flib.decoder
    enc_image = np.asarray(phi(flib.encoder @ w), dtype=float)

    code, assignment, trace, rounds, rep_hessians, dists, d0 = _alternate(
        state, data, w, omega, decoder, enc_image)
    # zip drops the outlier slot, the last entry of z
    reps_used = tuple((rep.code, H, float(z_k)) for rep, H, z_k
                      in zip(state.mlib.reps, rep_hessians, assignment.z))

    flib = update_decoder(flib, code, omega, reps_used, hp.lambda2, w, hp.mu)
    flib = update_encoder(flib, code, w, phi_inv, hp.mu)
    decoder_delta = float(np.linalg.norm(flib.decoder - decoder))
    encoder_delta = float(np.linalg.norm(flib.encoder - prev_encoder))
    flib = bump_tasks_seen(flib)

    mlib, admitted = admit_representative(state.mlib, code, assignment, data.task_id,
                                          flib.tasks_seen)

    per_task = dict(state.per_task)
    per_task[data.task_id] = PerTaskRecord(code=code, assignment=assignment, w=w,
                                           loss_kind=data.loss_kind)
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
        contribution=UpdateContribution(code=code, w=w, omega=omega,
                                        reps_used=reps_used, lambda2=hp.lambda2),
        distances=tuple(float(v) for v in dists),
        outlier_cost=float(d0),
    )
    new_state = dataclasses.replace(state, flib=flib, mlib=mlib, per_task=per_task)
    return new_state, outcome


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
    codes = state.mlib.codes()
    K = len(codes)

    if data.loss_kind == "squared":
        # the half-Hessian of squared loss does not depend on the point
        rep_hessians = [omega] * K
    else:
        rep_hessians = [hessian_at(data, decoder @ s_k) for s_k in codes]
    dist_pairs = list(zip(codes, rep_hessians))

    z = np.full(K + 1, 1.0 / (K + 1))
    assignment = Assignment(z=z)
    dists: np.ndarray = np.zeros(0)
    d0 = float("nan")
    trace: list[float] = []
    slots: list[int] = []
    while True:
        reps = tuple(
            Representative(code=codes[k], omega=rep_hessians[k], weight=float(z[k]))
            for k in range(K))
        prob = CodeProblem(w=w, omega=omega, decoder=decoder, encoder_image=enc_image,
                           reps=reps, lambda1=hp.lambda1, lambda2=hp.lambda2)
        code = encode_task(prob)
        base = _base_objective(prob, code)
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
        z = assignment.z
        trace.append(base + hp.lambda2 * (float(dists @ z[:K]) + float(z[K]) * d0))
        slot = assignment.argmax_slot
        if hp.lambda2 == 0.0 or (slots and slot == slots[-1]):
            break
        if slot in slots:
            raise ConvergenceError(
                f"the alternation returned to slot {slot} after leaving it "
                f"(slots by round: {slots + [slot]})")
        slots.append(slot)
    return code, assignment, trace, len(trace), rep_hessians, dists, d0


def _base_objective(prob: CodeProblem, code: np.ndarray) -> float:
    """Reconstruction + encoder coupling + l1, without representative terms."""
    r = prob.decoder @ code - prob.w
    e = code - prob.encoder_image
    return (float(r @ (prob.omega @ r)) + float(e @ e)
            + prob.lambda1 * float(np.abs(code).sum()))


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


def _checkpoint_payload(state: EngineState) -> dict:
    payload = library_to_dict(state.flib, state.mlib)
    payload["seed"] = state.seed
    payload["hyper"] = dataclasses.asdict(state.hyper)
    payload["per_task"] = {
        tid: {
            "code": encode_array(rec.code),
            "z": encode_array(rec.assignment.z),
            "w": encode_array(rec.w),
            "loss_kind": rec.loss_kind,
        }
        for tid, rec in state.per_task.items()
    }
    return payload


def save_state(state: EngineState, path) -> None:
    """Checkpoint: both libraries plus the per-task code/assignment table.

    One JSON document (format version 4: arrays as base64 of their raw
    float64 bytes, and of only the unique entries of the two
    Kronecker-symmetric accumulators, which are symmetric by construction;
    the decoder statistics in the coordinates of the library's code basis,
    which is stored too; see the codec notes in `libraries`), written to a
    dot-prefixed temp file beside `path`, synced to disk and moved into
    place with `os.replace`, so a write that fails part-way leaves any
    previous checkpoint at `path` intact.  The document holds the whole
    engine state: `load_state` returns a state equal to `state` field for
    field, bit for bit, which continues the stream exactly as `state` would.
    """
    if state.flib is None:
        raise ValueError("cannot checkpoint an engine that has seen no tasks")
    payload = _checkpoint_payload(state)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_state(path) -> EngineState:
    """The state `save_state` wrote; a version-3 checkpoint (no code basis)
    loads too, with its decoder statistics in the identity basis.  Any
    other version raises ValueError, among them version 1 (nested lists, no
    version key) and version 2 (every array in full), and so does an
    accumulator entry that is not packed, an array whose shape disagrees
    with the checkpoint's d, p and representatives, a version-4 basis that
    is not p x r with r <= p or not orthonormal to round-off, decoder
    statistics with a nonzero row past the basis, a per-task entry with an
    unknown loss, or a `tasks_seen` or `hyper.p` other than the per-task count or p."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version", 1)
    if version not in READABLE_VERSIONS:
        raise ValueError(f"{path}: checkpoint version {version!r} is not readable; "
                         f"readable versions are {list(READABLE_VERSIONS)}")
    flib, mlib = library_from_dict(payload)
    hyper = hyper_from_dict(payload["hyper"])
    if hyper.p != flib.p:
        raise ValueError(f"{path}: hyper.p = {hyper.p} disagrees with the library's "
                         f"p = {flib.p}")
    slots = len(mlib) + 1
    per_task = {}
    for tid, rec in payload["per_task"].items():
        key = f"per_task[{tid!r}]"
        z = decode_array(rec["z"], f"{key}.z")
        if z.ndim != 1 or not 1 <= z.size <= slots:
            raise ValueError(f"checkpoint array {key + '.z'!r}: shape {z.shape}, expected "
                             f"1 to {slots} entries from the checkpoint's representatives")
        if rec["loss_kind"] not in ("squared", "logistic"):
            raise ValueError(f"checkpoint entry {key + '.loss_kind'!r}: unknown loss "
                             f"{rec['loss_kind']!r}")
        per_task[tid] = PerTaskRecord(
            code=decode_shaped(rec["code"], f"{key}.code", (flib.p,)),
            assignment=Assignment(z=z),
            w=decode_shaped(rec["w"], f"{key}.w", (flib.d,)),
            loss_kind=rec["loss_kind"],
        )
    if flib.tasks_seen != len(per_task):
        raise ValueError(f"{path}: tasks_seen = {flib.tasks_seen} disagrees with the "
                         f"{len(per_task)} per-task entries")
    return EngineState(hyper=hyper, seed=int(payload["seed"]), flib=flib,
                       mlib=mlib, per_task=per_task)
