"""Soft assignment of a task to representative models plus a virtual
outlier slot.

The assignment minimises a linear cost plus an l1 term over the
probability simplex.  On the simplex ||z||_1 = 1, so the l1 term is a
constant and the block is minimised exactly by the vertex of the cheapest
slot.  The cost of the virtual slot is the outlier weight derived from the
ratio of the nearest representative distance to the total distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

OUTLIER_WEIGHT_CAP = 1e6


@dataclass(frozen=True)
class Assignment:
    """Simplex weights over the known representatives plus the outlier slot."""

    z: np.ndarray
    admm_iters: ClassVar[int] = 0   # read by the benchmark tracer; see solve_assignment

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 1 or z.size < 1:
            raise ValueError("assignment must be a non-empty vector")
        if z.min() < -1e-8 or z.max() > 1 + 1e-8:
            raise ValueError("assignment entries must lie in [0, 1]")
        if abs(z.sum() - 1.0) > 1e-6:
            raise ValueError("assignment entries must sum to 1")
        object.__setattr__(self, "z", z)

    @property
    def outlier_probability(self) -> float:
        return float(self.z[-1])

    @property
    def argmax_slot(self) -> int:
        return int(np.argmax(self.z))

    @property
    def picks_outlier(self) -> bool:
        # ties resolve to the first maximal slot, i.e. away from the outlier
        return self.argmax_slot == self.z.size - 1


def representative_distances(decoder: np.ndarray, s_t: np.ndarray,
                             reps: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Squared distances ||D s_k - D s_t||^2 under each representative's
    half-Hessian metric."""
    if len(reps) < 1:
        raise ValueError("need at least one representative")
    d, p = decoder.shape
    s_t = np.asarray(s_t, dtype=float)
    if s_t.shape != (p,):
        raise ValueError(f"code has shape {s_t.shape}, expected ({p},)")
    out = np.empty(len(reps))
    for i, (s_k, omega_k) in enumerate(reps):
        if s_k.shape != (p,) or omega_k.shape != (d, d):
            raise ValueError(f"representative {i} dimensions do not match the decoder")
        diff = decoder @ (s_k - s_t)
        out[i] = max(float(diff @ (omega_k @ diff)), 0.0)
    return out


def outlier_weight(distances: np.ndarray, gamma: float = 1.0,
                   cap: float = OUTLIER_WEIGHT_CAP) -> float:
    """Cost of the virtual slot: -gamma * log(min(d) / sum(d)).

    All-zero distances mean the task is perfectly represented already, so
    the virtual slot gets the cap and is never selected.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.size < 1:
        raise ValueError("need at least one distance")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if distances.min() < 0:
        raise ValueError("distances must be >= 0")
    total = float(distances.sum())
    if total == 0.0:
        return cap
    return float(-gamma * np.log(distances.min() / total))


def solve_assignment(distances: np.ndarray, d0: float, lambda2: float,
                     alpha: float, max_iter: int = 1) -> Assignment:
    """Minimise lambda2 * <[distances, d0], z> + alpha * ||z||_1 over the
    simplex exactly: all mass on the cheapest slot, ties to the lowest index.

    `max_iter` is ignored; it stays for the benchmark tracer
    (perfbench/instrument.py), which binds it and reads `admm_iters`.
    """
    cost = np.append(np.asarray(distances, dtype=float), d0)
    if not (cost >= 0).all():
        raise ValueError("costs must be >= 0")
    if lambda2 < 0 or alpha < 0:
        raise ValueError("lambda2 and alpha must be >= 0")
    z = np.zeros(cost.size)
    z[np.argmin(lambda2 * cost)] = 1.0
    return Assignment(z=z)
