"""Assignment of a task to representative models plus a virtual outlier
slot.

The paper soft-assigns a task over the simplex, but its cost is linear
there (an l1 term would be constant), so the exact minimiser is the vertex
of the cheapest slot: the assignment is a hard one, held as that slot's
index.  The cost of the virtual slot is the outlier weight derived from the
ratio of the nearest representative distance to the total distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

OUTLIER_WEIGHT_CAP = 1e6


@dataclass(frozen=True)
class Assignment:
    """The chosen `slot` of `slots`: the known representatives in order,
    then the outlier slot, last."""

    slot: int
    slots: int
    admm_iters: ClassVar[int] = 0   # read by the benchmark tracer; see solve_assignment

    def __post_init__(self):
        # a bool is no index, and a numpy integer is no JSON checkpoint entry
        if type(self.slot) is not int or type(self.slots) is not int or not (
                0 <= self.slot < self.slots):
            raise ValueError(f"slot {self.slot!r} is not an int index into {self.slots!r} slots")

    @property
    def picks_outlier(self) -> bool:
        return self.slot == self.slots - 1


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


def outlier_weight(distances: np.ndarray, gamma: float = 1.0) -> float:
    """Cost of the virtual slot: -gamma * log(min(d) / sum(d)).

    A zero distance means a representative already reconstructs the task
    exactly, so the virtual slot gets `OUTLIER_WEIGHT_CAP` and is never
    selected; the log ratio would be log(0) there.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.size < 1:
        raise ValueError("need at least one distance")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if distances.min() < 0:
        raise ValueError("distances must be >= 0")
    if distances.min() == 0.0:
        return OUTLIER_WEIGHT_CAP
    return float(-gamma * np.log(distances.min() / distances.sum()))


def solve_assignment(distances: np.ndarray, d0: float, lambda2: float,
                     max_iter: int = 1) -> Assignment:
    """Minimise lambda2 * <[distances, d0], z> over the simplex exactly: the
    vertex of the cheapest slot, ties to the lowest index (slot 0 at
    lambda2 = 0).

    `max_iter` is ignored; it stays for the benchmark tracer
    (perfbench/instrument.py), which binds it and reads `admm_iters`.
    """
    cost = np.append(np.asarray(distances, dtype=float), d0)
    if not (cost >= 0).all():
        raise ValueError("costs must be >= 0")
    if lambda2 < 0:
        raise ValueError("lambda2 must be >= 0")
    return Assignment(slot=int(np.argmin(lambda2 * cost)) if lambda2 > 0 else 0,
                      slots=cost.size)
