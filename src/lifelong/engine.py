"""Streaming orchestration: encode each arriving task against both
libraries, solve the representative assignment, refresh the libraries,
and grow the model library when the outlier slot wins.

Per task the alternation fixes everything computed at arrival (decoder,
representative half-Hessians, and the virtual-slot cost) and block-wise
minimises over the code and the assignment until the objective settles.
Each block is minimised exactly, the code up to its solver's tolerance:
the code problem is strongly convex, so FISTA (to `coder_tol`) finds its
unique minimiser, and the assignment is the closed-form vertex of its
cheapest slot.  Block descent therefore makes the traced objective
non-increasing.

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
from .libraries import (FeatureLibrary, ModelLibrary, admit_representative,
                        bump_tasks_seen, init_libraries, library_from_dict,
                        library_to_dict, update_decoder, update_encoder)
from .sparse_code import CodeProblem, Representative, encode_task
from .tasks import SingleTaskModel, TaskData, fit_single_task, hessian_at


@dataclass(frozen=True)
class HyperParams:
    """Knobs of the lifelong learner; defaults target the synthetic
    disjoint benchmark at standardised-target scale."""

    lambda1: float = 0.001    # l1 weight on codes
    lambda2: float = 0.05     # representative coupling weight
    alpha: float = 0.05       # l1 weight on assignments
    gamma: float = 0.25       # outlier-weight scale
    mu: float = 1e-3          # ridge on both library refits
    ridge: float = 1e-4       # ridge on single-task fits
    p: int = 20               # code length
    phi: str = "identity"     # "identity" | "tanh"
    max_outer: int = 20
    outer_tol: float = 1e-5
    coder_tol: float = 1e-6
    coder_max_iter: int = 5000
    admission_enabled: bool = True

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.alpha, self.mu, self.ridge) < 0:
            raise ValueError("regularisers must be >= 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.p < 1 or self.max_outer < 1:
            raise ValueError("p and max_outer must be >= 1")
        if self.phi not in ("identity", "tanh"):
            raise ValueError(f"unknown activation {self.phi!r}")


# settings of the iterative assignment the closed form replaced; checkpoints
# and configs written before it still carry them
RETIRED_HYPER_KEYS = frozenset({"beta", "rho", "admm_tol", "admm_max_iter"})


def hyper_from_dict(values: dict) -> HyperParams:
    """HyperParams from saved settings, dropping the retired keys; any other
    unknown key still raises."""
    return HyperParams(**{k: v for k, v in values.items() if k not in RETIRED_HYPER_KEYS})


def activation_pair(name: str) -> tuple[Callable, Callable]:
    if name == "identity":
        return (lambda v: v, lambda v: v)
    if name == "tanh":
        limit = 1.0 - 1e-6
        return (np.tanh, lambda v: np.arctanh(np.clip(v, -limit, limit)))
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class PerTaskRecord:
    code: np.ndarray
    assignment: Assignment
    single: SingleTaskModel
    loss_kind: str
    data: Optional[TaskData]   # None for a task restored from a checkpoint


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


def _merge_task_data(old: TaskData, new: TaskData) -> TaskData:
    if old.dim != new.dim or old.loss_kind != new.loss_kind:
        raise ValueError(f"task {new.task_id}: incompatible data appended to a seen task")
    return TaskData(features=np.hstack([old.features, new.features]),
                    targets=np.concatenate([old.targets, new.targets]),
                    loss_kind=old.loss_kind, task_id=old.task_id)


def learn_task(state: EngineState, data: TaskData) -> tuple[EngineState, TaskOutcome]:
    """Learn one arriving task (or relearn a seen task with appended data)."""
    try:
        return _learn_task(state, data)
    except Exception as exc:
        message = f"task {data.task_id!r}: {exc}"
        try:
            raise type(exc)(message) from exc
        except TypeError:
            raise RuntimeError(message) from exc


def _learn_task(state: EngineState, data: TaskData) -> tuple[EngineState, TaskOutcome]:
    hp = state.hyper
    phi, phi_inv = activation_pair(hp.phi)

    if data.task_id in state.per_task:
        seen = state.per_task[data.task_id].data
        if seen is None:
            # learn_task prefixes the task id
            raise ValueError("restored from a checkpoint, which carries no raw task "
                             "data, so it cannot be relearned with appended data")
        data = _merge_task_data(seen, data)

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
    K = len(state.mlib)

    dists: np.ndarray = np.zeros(0)
    d0 = float("nan")
    if K == 0:
        # an empty model library: the code solve is the whole alternation
        prob = CodeProblem(w=w, omega=omega, decoder=decoder, encoder_image=enc_image,
                           reps=(), lambda1=hp.lambda1, lambda2=hp.lambda2)
        code = encode_task(prob, tol=hp.coder_tol, max_iter=hp.coder_max_iter)
        trace = [_base_objective(prob, code)]
        rounds = 1
        assignment = Assignment(z=np.array([1.0]))
        reps_used: tuple = ()
    else:
        code, assignment, trace, rounds, rep_hessians, dists, d0 = _alternate(
            state, data, w, omega, decoder, enc_image)
        reps_used = tuple(
            (state.mlib.reps[k].code, rep_hessians[k], float(assignment.z[k]))
            for k in range(K))

    flib = update_decoder(flib, code, omega, reps_used, hp.lambda2, w, hp.mu)
    flib = update_encoder(flib, code, w, phi_inv, hp.mu)
    decoder_delta = float(np.linalg.norm(flib.decoder - decoder))
    encoder_delta = float(np.linalg.norm(flib.encoder - prev_encoder))
    flib = bump_tasks_seen(flib)

    t = flib.tasks_seen
    if hp.admission_enabled or t == 1:
        mlib, admitted = admit_representative(state.mlib, code, assignment, data.task_id, t)
    else:
        mlib, admitted = state.mlib, False

    per_task = dict(state.per_task)
    per_task[data.task_id] = PerTaskRecord(code=code, assignment=assignment,
                                           single=single, loss_kind=data.loss_kind,
                                           data=data)
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
    decoder, representative Hessians and virtual-slot cost held fixed.

    At lambda2 = 0 every slot costs nothing: the assignment is slot 0 and
    the second round is an exact fixed point."""
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
    d0 = None
    trace: list[float] = []
    code = enc_image
    rounds = 0
    for rounds in range(1, hp.max_outer + 1):
        reps = tuple(
            Representative(code=codes[k], omega=rep_hessians[k], weight=float(z[k]))
            for k in range(K))
        prob = CodeProblem(w=w, omega=omega, decoder=decoder, encoder_image=enc_image,
                           reps=reps, lambda1=hp.lambda1, lambda2=hp.lambda2)
        code = encode_task(prob, tol=hp.coder_tol, max_iter=hp.coder_max_iter)

        dists = representative_distances(decoder, code, dist_pairs)
        if d0 is None:
            # fixed per task: the virtual slot's cost is a constant of the
            # alternation, which keeps the traced objective monotone
            if dists.sum() == 0.0:
                d0 = outlier_weight(dists, hp.gamma)  # returns the cap
            elif K == 1:
                d0 = hp.gamma * float(np.log(2.0))    # break the K=1 degeneracy
            else:
                d0 = outlier_weight(dists, hp.gamma)
        z_prev = z
        assignment = solve_assignment(dists, d0, hp.lambda2, hp.alpha)
        z = assignment.z

        base = _base_objective(prob, code)
        rep_cost = hp.lambda2 * (float(dists @ z[:K]) + float(z[K]) * d0
                                 + hp.alpha * float(np.abs(z).sum()))
        trace.append(base + rep_cost)
        if rounds > 1 and np.array_equal(z, z_prev):
            # exact fixed point: the next round would reproduce this code
            # and assignment bit for bit, so the alternation is done
            break
        if len(trace) >= 2:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12)
            if rel < hp.outer_tol:
                break
    return code, assignment, trace, rounds, rep_hessians, dists, d0


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
            "code": rec.code.tolist(),
            "z": rec.assignment.z.tolist(),
            "w": rec.single.w.tolist(),
            "loss_kind": rec.loss_kind,
        }
        for tid, rec in state.per_task.items()
    }
    return payload


def _json_pieces(value):
    """The text `json.dump(value, fh)` writes, in pieces: dicts key by key
    and lists of lists or dicts item by item, every other value in one
    `json.dumps` call.  `json.dumps` uses the C encoder, which the streaming
    `json.dump` never does; emitting a matrix row by row keeps the encoded
    text from being held whole in memory beside the payload."""
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(item)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"
    else:
        yield json.dumps(value)


def save_state(state: EngineState, path) -> None:
    """Checkpoint: both libraries plus the per-task code/assignment table.

    The file holds the same bytes `json.dump` writes, encoded piecewise by
    the C encoder (`_json_pieces`), written to a dot-prefixed temp file
    beside `path`, synced to disk and moved into place with `os.replace`,
    so a write that fails part-way leaves any previous checkpoint at
    `path` intact.  Raw task data is not checkpointed: a loaded state
    supports prediction, inspection and learning new tasks, but refuses
    to relearn a restored task.
    """
    if state.flib is None:
        raise ValueError("cannot checkpoint an engine that has seen no tasks")
    payload = _checkpoint_payload(state)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for piece in _json_pieces(payload):
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_state(path) -> EngineState:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    flib, mlib = library_from_dict(payload)
    hyper = hyper_from_dict(payload["hyper"])
    per_task = {}
    for tid, rec in payload["per_task"].items():
        single = SingleTaskModel(w=np.array(rec["w"], dtype=float),
                                 omega=np.zeros((flib.d, flib.d)), loss_at_w=0.0)
        per_task[tid] = PerTaskRecord(
            code=np.array(rec["code"], dtype=float),
            assignment=Assignment(z=np.array(rec["z"], dtype=float)),
            single=single,
            loss_kind=rec["loss_kind"],
            data=None,
        )
    return EngineState(hyper=hyper, seed=int(payload["seed"]), flib=flib,
                       mlib=mlib, per_task=per_task)
