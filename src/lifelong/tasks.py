"""Single-task models: loss functions, fits, and half-Hessian surrogates.

Each incoming task is summarised by the pair (w, omega): the per-task
parameter vector and half the Hessian of the task loss at a reference
point.  The quadratic form ||v - w||^2_omega then reproduces the loss
surface around w exactly for squared loss and to second order for
logistic loss, which is what the rest of the pipeline optimises against
instead of touching raw task data again.

Conventions: squared loss is (1/(2n)) * ||X'w - y||^2, logistic loss is
(1/n) * sum log(1 + exp(-y_i x_i'w)).  Samples are columns of X (d x n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal

import numpy as np

LossKind = Literal["squared", "logistic"]

LOGISTIC_GRAD_TOL = 1e-8
LOGISTIC_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance."""


# the JSON documents the package reads: checkpoints, corpus manifests and configs
def read_json(path):
    """The JSON document in the file at `path`; ValueError, naming the file
    and the parser's position, refuses one that is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               (int, float): "a number"}


def json_entry(doc, key, kind, name: str, document: str):
    """`doc[key]`, refused as `document` entry `name` when it is missing
    (`doc` may be any JSON value) or not of `kind`, a key of `_JSON_KINDS`:
    a JSON integer is not a float, and a bool is no integer or number."""
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"{document} entry {name!r} is missing") from None
    if type(value) is bool or not isinstance(value, kind):
        raise ValueError(f"{document} entry {name!r}: {value!r} is not {_JSON_KINDS[kind]}")
    return value


@dataclass(frozen=True)
class TaskData:
    """One task: design matrix (d x n, samples as columns), targets, loss kind."""

    features: np.ndarray
    targets: np.ndarray
    loss_kind: LossKind
    task_id: str

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"task {self.task_id}: features must be a d x n matrix with d, n >= 1")
        if y.shape != (X.shape[1],):
            raise ValueError(f"task {self.task_id}: expected {X.shape[1]} targets, got shape {y.shape}")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise ValueError(f"task {self.task_id}: non-finite entries in features or targets")
        if self.loss_kind == "logistic" and not np.all(np.abs(y) == 1.0):
            raise ValueError(f"task {self.task_id}: classification targets must be exactly +/-1")
        if self.loss_kind not in ("squared", "logistic"):
            raise ValueError(f"task {self.task_id}: unknown loss kind {self.loss_kind!r}")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SingleTaskModel:
    """Fitted parameter vector with its half-Hessian surrogate."""

    w: np.ndarray
    omega: np.ndarray
    loss_at_w: float

    def __post_init__(self):
        omega = self.omega
        sym_err = np.abs(omega - omega.T).max()
        scale = max(np.abs(omega).max(), 1.0)
        if sym_err > 1e-10 * scale:
            raise ValueError("omega is not symmetric")
        eigmin = np.linalg.eigvalsh(omega)[0]
        if eigmin < -1e-8 * scale:
            raise ValueError(f"omega is not PSD (min eigenvalue {eigmin:.3e})")


def _check_point(data: TaskData, point: np.ndarray) -> np.ndarray:
    point = np.asarray(point, dtype=float)
    if point.shape != (data.dim,):
        raise ValueError(f"point has shape {point.shape}, expected ({data.dim},)")
    if not np.isfinite(point).all():
        raise ValueError("point has non-finite entries")
    return point


def loss_value(data: TaskData, point: np.ndarray) -> float:
    """Task loss at `point`, without any ridge term."""
    point = _check_point(data, point)
    scores = data.features.T @ point
    n = data.n_samples
    if data.loss_kind == "squared":
        return float(np.sum((scores - data.targets) ** 2) / (2 * n))
    margins = data.targets * scores
    return float(np.sum(np.logaddexp(0.0, -margins)) / n)


def loss_gradient(data: TaskData, point: np.ndarray) -> np.ndarray:
    """Gradient of `loss_value` with respect to the parameter vector."""
    point = _check_point(data, point)
    X = data.features
    y = data.targets
    n = data.n_samples
    scores = X.T @ point
    if data.loss_kind == "squared":
        return X @ (scores - y) / n
    # d/dz log(1 + exp(-z)) = -sigma(-z), applied at z = y * score
    sig = _sigmoid(-y * scores)
    return -X @ (y * sig) / n


def hessian_at(data: TaskData, point: np.ndarray) -> np.ndarray:
    """Half the loss Hessian at `point`; constant in `point` for squared loss."""
    point = _check_point(data, point)
    X = data.features
    n = data.n_samples
    if data.loss_kind == "squared":
        omega = X @ X.T / (2 * n)
    else:
        sig = _sigmoid(X.T @ point)
        weights = sig * (1.0 - sig)
        omega = (X * weights) @ X.T / (2 * n)
    return (omega + omega.T) / 2


def fit_single_task(data: TaskData, ridge: float = 1e-4) -> SingleTaskModel:
    """Fit w by ridge-regularised maximum likelihood and attach its surrogate.

    The ridge term stabilises the fit only; the stored omega is the half
    Hessian of the plain loss at w.  Squared loss is solved in closed form,
    logistic loss by damped Newton iterations down to gradient norm 1e-8.
    """
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if data.loss_kind == "squared":
        w = _fit_squared(data, ridge)
    else:
        w = _fit_logistic(data, ridge)
    return SingleTaskModel(w=w, omega=hessian_at(data, w), loss_at_w=loss_value(data, w))


def _fit_squared(data: TaskData, ridge: float) -> np.ndarray:
    X = data.features
    n = data.n_samples
    gram = X @ X.T / n + ridge * np.eye(data.dim)
    rhs = X @ data.targets / n
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "normal equations are singular; refit with ridge > 0"
        ) from None
    return _cho_solve(chol, rhs)


def _fit_logistic(data: TaskData, ridge: float) -> np.ndarray:
    d = data.dim
    w = np.zeros(d)
    eye = np.eye(d)

    def objective(v):
        return loss_value(data, v) + 0.5 * ridge * float(v @ v)

    for _ in range(LOGISTIC_MAX_ITER):
        grad = loss_gradient(data, w) + ridge * w
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= LOGISTIC_GRAD_TOL:
            return w
        hess = 2.0 * hessian_at(data, w) + ridge * eye
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "logistic Hessian is singular; refit with ridge > 0"
            ) from None
        # halving line search keeps the damped Newton step monotone
        f0 = objective(w)
        t = 1.0
        for _ in range(60):
            cand = w - t * step
            if objective(cand) <= f0:
                break
            t /= 2
        w = w - t * step
    gnorm = float(np.linalg.norm(loss_gradient(data, w) + ridge * w))
    if gnorm <= LOGISTIC_GRAD_TOL:
        return w
    raise ConvergenceError(
        f"logistic fit did not reach gradient norm {LOGISTIC_GRAD_TOL:g} after "
        f"{LOGISTIC_MAX_ITER} iterations (final gradient norm {gnorm:.3e})"
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y)
