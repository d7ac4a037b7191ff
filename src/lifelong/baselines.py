"""Reference models for comparisons: independent single-task fits and the
configuration of the dictionary-only ablation (representative coupling and
admission switched off, everything else on the same code path as the full
engine)."""

from __future__ import annotations

import dataclasses

import numpy as np

from .datasets import TaskCorpus
from .engine import HyperParams
from .tasks import fit_single_task


def run_stl(corpus: TaskCorpus, ridge: float) -> dict[str, np.ndarray]:
    """Fit every task independently; returns task_id -> weight vector."""
    return {task.task_id: fit_single_task(task, ridge).w for task in corpus.tasks}


def ablation_hyper(hyper: HyperParams) -> HyperParams:
    """The full engine's configuration with the representative machinery off."""
    return dataclasses.replace(hyper, lambda2=0.0, admission_enabled=False)
