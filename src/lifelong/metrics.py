"""Evaluation metrics and plot-ready tables.

AUC is the Mann-Whitney rank statistic with tie correction; the model
correlation matrix uses absolute cosine similarity so sign flips cannot
hide cluster structure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ABSENT = "absent"


@dataclass(frozen=True)
class MetricReport:
    per_task: dict
    metric_kind: str                     # "rmse" | "auc" | "accuracy"

    def __post_init__(self):
        if self.metric_kind not in ("rmse", "auc", "accuracy"):
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        for task_id, value in self.per_task.items():
            if self.metric_kind == "rmse" and value < 0:
                raise ValueError(f"negative rmse for task {task_id}")
            if self.metric_kind in ("auc", "accuracy") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.metric_kind} outside [0, 1] for task {task_id}")

    @property
    def mean(self) -> float:
        return float(np.mean(list(self.per_task.values())))


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    uniq, inverse, counts = np.unique(sorted_vals, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    avg = starts + (counts + 1) / 2.0
    ranks = np.empty(values.size)
    ranks[order] = avg[inverse]
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(score+ > score-) + 0.5 P(tie) over positive/negative pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be vectors of equal length")
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be exactly +/-1")
    n_pos = int(np.sum(labels > 0))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels > 0].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(pred_labels: np.ndarray, truth: np.ndarray) -> float:
    pred_labels = np.asarray(pred_labels)
    truth = np.asarray(truth)
    if pred_labels.shape != truth.shape or pred_labels.ndim != 1 or pred_labels.size < 1:
        raise ValueError("prediction/truth length mismatch")
    return float(np.mean(pred_labels == truth))


def model_correlation_matrix(weights: np.ndarray) -> np.ndarray:
    """Absolute cosine similarity between weight columns; unit diagonal.

    Zero-norm columns get zero off-diagonal entries and raise a warning.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] < 2:
        raise ValueError("need a d x T weight matrix with T >= 2")
    norms = np.linalg.norm(weights, axis=0)
    zero = norms < 1e-300
    if zero.any():
        warnings.warn(f"{int(zero.sum())} zero-norm model column(s); their correlations are set to 0")
    safe = np.where(zero, 1.0, norms)
    unit = weights / safe
    corr = np.abs(unit.T @ unit)
    corr[zero, :] = 0.0
    corr[:, zero] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, 0.0, 1.0)


def within_between_gap(corr: np.ndarray, labels: np.ndarray) -> float:
    """Mean within-cluster minus mean cross-cluster off-diagonal entry."""
    labels = np.asarray(labels)
    T = corr.shape[0]
    same = labels[:, None] == labels[None, :]
    off = ~np.eye(T, dtype=bool)
    return float(corr[same & off].mean() - corr[~same].mean())


def csv_text(rows) -> str:
    """`rows` of cells as CSV text, one line each.  The cells are strings,
    ints and floats, and a float's str is its shortest round-trip repr."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def timeline_to_csv(outcomes: Sequence) -> str:
    """CSV with one row per engine TaskOutcome in `outcomes` (anything with
    .task_id, .assignment and .admitted works), numbered from 1; its `z<j>`
    cells are 1.0 at its slot, 0.0 at the others, and `absent` for slots
    that did not exist yet."""
    width = max((out.assignment.slots for out in outcomes), default=0)
    rows = [["index", "task_id", "admitted", "argmax_slot"] + [f"z{j}" for j in range(width)]]
    for index, out in enumerate(outcomes, start=1):
        slot, slots = out.assignment.slot, out.assignment.slots
        rows.append([index, out.task_id, int(bool(out.admitted)), slot]
                    + [float(j == slot) for j in range(slots)] + [ABSENT] * (width - slots))
    return csv_text(rows)
