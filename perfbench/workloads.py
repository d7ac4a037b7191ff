"""The benchmark's workloads and the checks every stream's outputs must pass.

Each workload is a `run_experiment` configuration, the code path behind
`lifelong-run`; the benchmark streams one engine seed per call.  Which
layer each workload loads, and why it was chosen, is recorded in
layer_map.json next to this file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lifelong.engine
from lifelong.datasets import generate_disjoint, split_corpus, standardize_targets
from lifelong.engine import HyperParams
from lifelong.experiment import ExperimentConfig
from lifelong.metrics import ABSENT

N_PER_TASK = 50
STL_MARGIN = 0.10               # criterion 1: engine RMSE below STL's by this much
REPRESENTATIVE_BAND = (2, 6)    # criterion 2
P90_MIN_SAMPLES = 100           # p90 needs at least ten samples above it


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    tasks_per_cluster: int
    d: int
    p: int
    with_ablation: bool
    eval_every_task: bool = False
    checkpoint_every: int = 0

    @property
    def tasks(self) -> int:
        return self.clusters * self.tasks_per_cluster

    @property
    def arrivals(self) -> int:
        """Arrivals one stream schedules: the engine's plus the ablation's."""
        return self.tasks * (2 if self.with_ablation else 1)

    @property
    def min_streams(self) -> int:
        """Streams a run needs so the engine's arrival p90 is valid."""
        return math.ceil(P90_MIN_SAMPLES / self.tasks)

    def hyper(self) -> HyperParams:
        return HyperParams(p=self.p)

    def dataset(self) -> dict:
        return {"type": "disjoint", "clusters": self.clusters,
                "tasks_per_cluster": self.tasks_per_cluster, "d": self.d,
                "n_per_task": N_PER_TASK}

    def config(self, engine_seed: int, output_dir) -> ExperimentConfig:
        return ExperimentConfig(
            dataset=self.dataset(), seeds=(engine_seed,), task_order="random",
            hyper=self.hyper(), output_dir=str(output_dir), with_stl=True,
            with_ablation=self.with_ablation, eval_every_task=self.eval_every_task,
            checkpoint_every=self.checkpoint_every)


WORKLOADS = {w.name: w for w in (
    Workload("stream-d40", clusters=3, tasks_per_cluster=10, d=40, p=20,
             with_ablation=True),
    Workload("stream-long-d20", clusters=3, tasks_per_cluster=40, d=20, p=10,
             with_ablation=True),
    Workload("checkpoint-d40", clusters=3, tasks_per_cluster=10, d=40, p=20,
             with_ablation=False, eval_every_task=True, checkpoint_every=10),
)}


def expected_reports(workload: Workload, seed: int) -> list[str]:
    names = ["summary.csv", "run_metadata.json", f"per_task_{seed}.csv",
             f"timeline_{seed}.csv", f"correlation_{seed}.csv", f"checkpoint_{seed}.json"]
    if workload.eval_every_task:
        names.append(f"curve_{seed}.csv")
    if workload.checkpoint_every:
        names += [f"checkpoint_{seed}_t{step}.json"
                  for step in range(workload.checkpoint_every, workload.tasks + 1,
                                    workload.checkpoint_every)]
    return names


def summary_value(out: Path, model: str, metric: str) -> float:
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["model"] == model and row["metric"] == metric:
                return float(row["mean"])
    raise KeyError(f"summary.csv has no {model}/{metric} row")


def _parse(path: Path) -> None:
    """Raise unless the report parses: JSON as JSON, CSV as a table whose
    rows all have the header's width and end in a number (or, in the
    timeline, a slot marked absent)."""
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
        return
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path.name} has no data rows")
    for row in rows[1:]:
        if len(row) != len(rows[0]):
            raise ValueError(f"{path.name}: row width {len(row)} != header {len(rows[0])}")
        if row[-1] != ABSENT:
            float(row[-1])


def held_out_tasks(workload: Workload, engine_seed: int):
    """The held-out tasks `run_experiment` evaluates on, rebuilt the same way."""
    corpus = generate_disjoint(seed=engine_seed, **{k: v for k, v in workload.dataset().items()
                                                    if k != "type"})
    train, test = split_corpus(corpus, ExperimentConfig.train_fraction, engine_seed)
    return standardize_targets(train, test)[1].tasks


def check_resume(workload: Workload, engine_seed: int, out: Path, probe) -> list[tuple]:
    """The resume that ends every stream: `load_state` of the final
    checkpoint, then `predict` on every held-out task, which must match the
    in-memory engine bit for bit.  Returns (name, ok, detail) triples."""
    loaded = lifelong.engine.load_state(out / f"checkpoint_{engine_seed}.json")
    state = probe.final_state
    differ = [t.task_id for t in held_out_tasks(workload, engine_seed)
              if lifelong.engine.predict(state, t.task_id, t.features).tobytes()
              != lifelong.engine.predict(loaded, t.task_id, t.features).tobytes()]
    return [
        ("admitted_equals_library", probe.admitted == len(state.mlib) == len(loaded.mlib),
         f"admitted={probe.admitted} library={len(state.mlib)} loaded={len(loaded.mlib)}"),
        ("resume_bitwise", not differ, f"tasks whose predictions differ: {differ}"),
    ]


def check_reports(workload: Workload, engine_seed: int, out: Path,
                  parse_intermediate: bool = True) -> list[tuple]:
    """Every report exists and parses, and the representative count is in
    criterion 2's band.

    Intermediate checkpoints are parsed only when `parse_intermediate` is
    set: at 15 MB of JSON they cost 0.5 s apiece, and they come from the
    same `save_state` as the final checkpoint, which `check_resume` loads.
    """
    names = expected_reports(workload, engine_seed)
    missing = [n for n in names if not (out / n).is_file()]
    bad = []
    for name in names:
        if name in missing or name == f"checkpoint_{engine_seed}.json":
            continue
        if name.startswith("checkpoint_") and not parse_intermediate:
            continue
        try:
            _parse(out / name)
        except (ValueError, KeyError, IndexError) as exc:
            bad.append(f"{name}: {exc}")
    reps = summary_value(out, "engine", "representatives")
    lo, hi = REPRESENTATIVE_BAND
    return [
        ("reports_parse", not missing and not bad and not (out / "INCOMPLETE").exists(),
         f"missing={missing} unparsable={bad}"),
        ("representatives_in_band", lo <= reps <= hi, f"{reps:g} in [{lo}, {hi}]"),
    ]


def check_quality(engine_rmse: list[float], stl_rmse: list[float]) -> tuple:
    """Criterion 1's margin over the run's streams."""
    engine, stl = float(np.mean(engine_rmse)), float(np.mean(stl_rmse))
    return ("engine_beats_stl", engine < stl - STL_MARGIN,
            f"engine={engine:.4f} stl={stl:.4f} margin={STL_MARGIN}")
