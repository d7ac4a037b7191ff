"""Task corpora: the synthetic disjoint-cluster benchmark, a documented
on-disk format, deterministic splits, and target standardisation.

On-disk layout: a JSON manifest {name, problem_kind, d, tasks: [{id,
file}]} next to one CSV per task with header f0,...,f{d-1},target and one
sample per row.  Floats are written with shortest round-trip repr, so a
save/load cycle is bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .tasks import TaskData, json_entry, read_json


@dataclass(frozen=True)
class GroundTruth:
    cluster_labels: np.ndarray   # T ints
    true_weights: np.ndarray     # d x T


# characters a task id may not hold: the reports write ids as bare CSV
# fields and `save_corpus` names each task's file after its id
_ID_FORBIDDEN = frozenset(',"\r\n/\\')


@dataclass(frozen=True)
class TaskCorpus:
    tasks: tuple[TaskData, ...]
    problem_kind: str            # "regression" | "classification"
    name: str = "corpus"
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("corpus has no tasks")
        dims = {t.dim for t in self.tasks}
        if len(dims) != 1:
            raise ValueError(f"tasks disagree on feature dimension: {sorted(dims)}")
        if self.problem_kind not in ("regression", "classification"):
            raise ValueError(f"unknown problem kind {self.problem_kind!r}")
        for t in self.tasks:
            if t.task_id in ("", ".", "..") or not _ID_FORBIDDEN.isdisjoint(t.task_id):
                raise ValueError(f"task id {t.task_id!r}: ids name files and fill CSV "
                                 f"fields, so one may not be empty, '.' or '..', or "
                                 f"hold a comma, quote, slash, backslash, CR or LF")
        counts = Counter(t.task_id for t in self.tasks)
        repeated = sorted(tid for tid, n in counts.items() if n > 1)
        if repeated:
            raise ValueError(f"task ids are not unique: {repeated}")

    @property
    def d(self) -> int:
        return self.tasks[0].dim

    def __len__(self) -> int:
        return len(self.tasks)


def cluster_blocks(d: int, clusters: int) -> list[tuple[int, int]]:
    """Each cluster's block [lo, hi) of the dimensions from d // 2 on: in
    turn, ceil((d - d // 2) / clusters) of them, the last what remains.
    Too many clusters leave the last block empty or start it past d."""
    half = d // 2
    block = math.ceil((d - half) / clusters)
    return [(half + c * block, min(half + (c + 1) * block, d)) for c in range(clusters)]


def disjoint_parameters(params: dict) -> dict:
    """The parameters of `generate_disjoint` but its seed: their defaults,
    in order, updated by `params`.  ValueError names the dataset entry that
    is unknown, not a JSON integer (a number, for noise_std) or out of
    range: a count below 1, an n_per_task below 2 (each task is split in
    half), a d below twice the clusters, a clusters count whose last
    block would start past d (see `cluster_blocks`), and a noise_std that
    is negative or not finite."""
    values = {"clusters": 3, "tasks_per_cluster": 10, "d": 40, "n_per_task": 50, "noise_std": 0.1}
    unknown = sorted(params.keys() - values.keys())
    if unknown:
        raise ValueError(f"dataset entry {unknown[0]!r}: a disjoint dataset takes "
                         + ", ".join(values))
    values.update(params)
    for name in ("clusters", "tasks_per_cluster", "n_per_task", "d"):
        json_entry(values, name, int, name, "dataset")
    for name, least in (("clusters", 1), ("tasks_per_cluster", 1), ("n_per_task", 2),
                        ("d", 2 * values["clusters"])):
        if values[name] < least:
            raise ValueError(f"dataset entry {name!r}: {values[name]}, expected at least {least}")
    blocks = cluster_blocks(values["d"], values["clusters"])
    if blocks[-1][0] > values["d"]:
        raise ValueError(f"dataset entry 'clusters': {values['clusters']}, but only "
                         f"{sum(lo < hi for lo, hi in blocks)} clusters get a block of the "
                         f"{values['d'] - values['d'] // 2} dimensions from index d // 2 on, "
                         f"{blocks[0][1] - blocks[0][0]} each")
    noise_std = json_entry(values, "noise_std", (int, float), "noise_std", "dataset")
    # an exact comparison: an integer past float range is refused too
    if not 0 <= noise_std <= float(np.finfo(float).max):
        raise ValueError(f"dataset entry 'noise_std': {noise_std!r}, expected a finite "
                         f"number >= 0")
    return values


def generate_disjoint(seed: int, **params) -> TaskCorpus:
    """Synthetic regression stream with disjoint cluster supports; `params`
    are those `disjoint_parameters` takes.

    The first half of the dimensions carries only task-specific weight
    (entries ~ N(0, 16)); the second half is partitioned into contiguous
    per-cluster blocks holding the cluster centres (entries ~ N(0, 900)),
    laid out by `cluster_blocks`.
    Each task weight is its centre plus a task component that is nonzero
    on the first half and on its cluster's block.  Features are standard
    normal and targets get additive N(0, noise_std^2) noise.
    """
    clusters, tasks_per_cluster, d, n_per_task, noise_std = disjoint_parameters(params).values()
    rng = np.random.default_rng(seed)
    half = d // 2
    supports = cluster_blocks(d, clusters)

    centers = np.zeros((d, clusters))
    for c, (lo, hi) in enumerate(supports):
        centers[lo:hi, c] = rng.normal(0.0, 30.0, size=hi - lo)

    tasks, labels, true_weights = [], [], []
    for c in range(clusters):
        lo, hi = supports[c]
        for i in range(tasks_per_cluster):
            component = np.zeros(d)
            component[:half] = rng.normal(0.0, 4.0, size=half)
            component[lo:hi] = rng.normal(0.0, 4.0, size=hi - lo)
            w_hat = centers[:, c] + component
            X = rng.normal(0.0, 1.0, size=(d, n_per_task))
            y = w_hat @ X + rng.normal(0.0, noise_std, size=n_per_task)
            tasks.append(TaskData(features=X, targets=y, loss_kind="squared",
                                  task_id=f"c{c}_t{i}"))
            labels.append(c)
            true_weights.append(w_hat)
    truth = GroundTruth(cluster_labels=np.array(labels),
                        true_weights=np.column_stack(true_weights))
    return TaskCorpus(tasks=tuple(tasks), problem_kind="regression",
                      name="disjoint", ground_truth=truth)


def split_corpus(corpus: TaskCorpus, train_fraction: float = 0.5,
                 seed: int = 0) -> tuple[TaskCorpus, TaskCorpus]:
    """Per-task shuffled split, deterministic in the seed."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_tasks, test_tasks = [], []
    for task in corpus.tasks:
        n = task.n_samples
        if n < 2:
            raise ValueError(f"task {task.task_id} has fewer than 2 samples")
        perm = rng.permutation(n)
        n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
        tr, te = perm[:n_train], perm[n_train:]
        for sel, bucket in ((tr, train_tasks), (te, test_tasks)):
            bucket.append(dataclasses.replace(
                task, features=task.features[:, sel], targets=task.targets[sel]))
    return (
        dataclasses.replace(corpus, tasks=tuple(train_tasks)),
        dataclasses.replace(corpus, tasks=tuple(test_tasks)),
    )


def standardize_targets(train: TaskCorpus, test: TaskCorpus
                        ) -> tuple[TaskCorpus, TaskCorpus]:
    """Per-task target standardisation using train-split statistics.

    Regression only: classification labels are categorical.  Both splits
    are transformed with the train mean and standard deviation.
    """
    if train.problem_kind != "regression":
        raise ValueError("target standardisation applies to regression corpora only")
    train_tasks, test_tasks = [], []
    for tr, te in zip(train.tasks, test.tasks, strict=True):
        if tr.task_id != te.task_id:
            raise ValueError("train/test task order mismatch")
        m = float(tr.targets.mean())
        s = float(tr.targets.std())
        if s < 1e-12:
            s = 1.0
        train_tasks.append(dataclasses.replace(tr, targets=(tr.targets - m) / s))
        test_tasks.append(dataclasses.replace(te, targets=(te.targets - m) / s))
    return (
        dataclasses.replace(train, tasks=tuple(train_tasks)),
        dataclasses.replace(test, tasks=tuple(test_tasks)),
    )


def save_corpus(corpus: TaskCorpus, directory) -> Path:
    """Write the manifest plus one CSV per task; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for task in corpus.tasks:
        fname = f"{task.task_id}.csv"
        _write_task_csv(directory / fname, task)
        entries.append({"id": task.task_id, "file": fname})
    manifest = {
        "name": corpus.name,
        "problem_kind": corpus.problem_kind,
        "d": corpus.d,
        "tasks": entries,
    }
    path = directory / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _manifest_path(path) -> Path:
    """The manifest at `path`, or in the directory `path`."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    return path


def load_corpus(path) -> TaskCorpus:
    """Load a corpus from its manifest (or the directory containing one),
    whose every task file lies inside the manifest's directory."""
    path = _manifest_path(path)
    manifest = read_json(path)
    document = f"{path}: manifest"
    name, kind, d, entries = (json_entry(manifest, key, want, key, document) for key, want
                              in (("name", str), ("problem_kind", str), ("d", int), ("tasks", list)))
    if kind not in ("regression", "classification"):
        raise ValueError(f"{path}: manifest entry 'problem_kind' must be 'regression' or "
                         f"'classification', got {kind!r}")
    loss_kind = "squared" if kind == "regression" else "logistic"
    root = path.parent.resolve()
    tasks = []
    for i in range(len(entries)):
        entry = json_entry(entries, i, dict, f"tasks[{i}]", document)
        tid, file = (json_entry(entry, key, str, f"tasks[{i}].{key}", document)
                     for key in ("id", "file"))
        fpath = path.parent / file
        if not fpath.resolve().is_relative_to(root):
            raise ValueError(f"{path}: task {tid!r}: file {file!r} lies "
                             f"outside the manifest's directory")
        if not fpath.exists():
            raise FileNotFoundError(f"{path}: task file listed in manifest is missing: {file}")
        try:
            X, y = _read_task_csv(fpath, d)
            tasks.append(TaskData(features=X, targets=y, loss_kind=loss_kind, task_id=tid))
        except ValueError as exc:
            raise ValueError(f"{path}: task {tid!r}: {exc}") from None
    return TaskCorpus(tasks=tuple(tasks), problem_kind=kind, name=name)


def _write_task_csv(path: Path, task: TaskData) -> None:
    d = task.dim
    header = ",".join([f"f{j}" for j in range(d)] + ["target"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(task.n_samples):
            row = [repr(float(v)) for v in task.features[:, i]]
            row.append(repr(float(task.targets[i])))
            fh.write(",".join(row) + "\n")


def _read_task_csv(path: Path, d: int):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty task file")
    # the field count first: a header is never built from d alone, which may be huge
    header = lines[0].split(",")
    if len(header) != d + 1 or header != [f"f{j}" for j in range(d)] + ["target"]:
        raise ValueError(f"{path}, line 1: bad header (expected manifest entry 'd' = {d} "
                         f"features plus target)")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ValueError(f"{path}, line {lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: non-numeric value") from None
    if not rows:
        raise ValueError(f"{path}: task file has no samples")
    arr = np.array(rows, dtype=float)
    return arr[:, :d].T.copy(), arr[:, d].copy()
