"""Experiment harness: stream a corpus through the engine and baselines
over several seeds, evaluate held-out splits, and write report files.

All outputs are plain text with full-precision floats and no timestamps,
so identical configs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import metrics
from .baselines import ablation_hyper, run_stl
from .datasets import (TaskCorpus, disjoint_parameters, generate_disjoint, load_corpus,
                       read_manifest, split_corpus, standardize_targets)
from .engine import (EngineState, HyperParams, init_state, learn_task, predict,
                     reconstructed_weights, save_state)
from .tasks import json_entry, refuse_unknown

TASK_ORDERS = ("random", "as_listed", "one_by_one_clusters")

# calibrated so the independent baseline sits at its literature level on
# the standardised synthetic benchmark
STL_RIDGE = 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {"type": "disjoint"})
    seeds: tuple[int, ...] = tuple(range(10))
    task_order: str = "random"
    hyper: HyperParams = field(default_factory=HyperParams)
    train_fraction: ClassVar[float] = 0.5     # a constant, not a setting
    output_dir: str = "results"
    with_stl: bool = True
    with_ablation: bool = True
    eval_every_task: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        # the JSON type of each setting, as a config file holds it; a bool
        # is no seed or count
        kinds = {"dataset": dict, "hyper": HyperParams, "task_order": str, "output_dir": str,
                 "with_stl": bool, "with_ablation": bool, "eval_every_task": bool,
                 "checkpoint_every": int}
        for name, kind in kinds.items():
            value = getattr(self, name)
            if not isinstance(value, kind) or (kind is int and type(value) is bool):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if not isinstance(self.seeds, tuple) or any(
                type(s) is bool or not isinstance(s, int) or s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be a list of integers >= 0, got {self.seeds!r}")
        if not self.seeds:
            raise ValueError("seeds must hold at least one seed")
        repeated = sorted(s for s, n in Counter(self.seeds).items() if n > 1)
        if repeated:
            # each seed writes its own files and counts once in summary.csv
            raise ValueError(f"seeds are not unique: {repeated}")
        if self.task_order not in TASK_ORDERS:
            raise ValueError(f"task_order must be one of {TASK_ORDERS}")
        params = dict(self.dataset)
        kind = params.pop("type", None)
        if kind == "disjoint":
            d, source = disjoint_parameters(params)["d"], "dataset"
        elif kind == "corpus":
            json_entry(params, "path", str, "path", "dataset")
            if params.keys() != {"path"}:
                raise ValueError(f"dataset entry {min(params.keys() - {'path'})!r}: a corpus "
                                 f"dataset takes path")
            # the manifest's header alone; the task files are read by the run
            path, manifest = read_manifest(params["path"])
            d, source = manifest["d"], f"{path}: manifest"
        else:
            raise ValueError("dataset type must be 'disjoint' or 'corpus'")
        if self.hyper.p > d:
            raise ValueError(f"config entry 'hyper.p': {self.hyper.p}, expected at most "
                             f"{source} entry 'd' = {d}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0 (0 turns periodic "
                             f"checkpoints off), got {self.checkpoint_every}")

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["seeds"] = list(self.seeds)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ValueError(f"a config must be a JSON object, got {payload!r}")
        refuse_unknown(payload, ExperimentConfig, "config")
        payload = dict(payload)      # the caller's document is left as read
        if isinstance(payload.get("hyper"), dict):
            payload["hyper"] = HyperParams.from_json(payload["hyper"], "config")
        if isinstance(payload.get("seeds"), list):
            payload["seeds"] = tuple(payload["seeds"])
        return ExperimentConfig(**payload)


def _make_corpus(config: ExperimentConfig, seed: int) -> TaskCorpus:
    params = dict(config.dataset)
    kind = params.pop("type")
    if kind == "disjoint":
        return generate_disjoint(seed=seed, **params)
    return load_corpus(params["path"])


def _order_tasks(corpus: TaskCorpus, order: str, seed: int) -> list[int]:
    T = len(corpus)
    if order == "as_listed":
        return list(range(T))
    if order == "random":
        return list(np.random.default_rng(seed).permutation(T))
    if corpus.ground_truth is None:
        raise ValueError("one_by_one_clusters ordering needs cluster ground truth")
    labels = corpus.ground_truth.cluster_labels
    return list(np.argsort(labels, kind="stable"))


def _evaluate(score_fn, test_tasks, kind: str) -> dict[str, metrics.MetricReport]:
    """Per-task held-out metrics; `score_fn(task)` returns raw scores, whose
    sign, ties to +1, is a classification task's label."""
    out: dict[str, dict] = {}
    if kind == "regression":
        out["rmse"] = {t.task_id: metrics.rmse(score_fn(t), t.targets) for t in test_tasks}
    else:
        out["auc"] = {t.task_id: metrics.auc(score_fn(t), t.targets) for t in test_tasks}
        out["accuracy"] = {t.task_id: metrics.accuracy(np.where(score_fn(t) >= 0.0, 1.0, -1.0),
                                                       t.targets) for t in test_tasks}
    return {k: metrics.MetricReport(per_task=v, metric_kind=k) for k, v in out.items()}


def _engine_reports(state: EngineState, test_tasks, kind: str):
    return _evaluate(lambda t: predict(state, t.task_id, t.features), test_tasks, kind)


@dataclass
class SeedResult:
    seed: int
    dataset_name: str
    reports: dict            # model -> {metric -> MetricReport}
    outcomes: list           # engine TaskOutcome list in stream order
    state: EngineState
    curve_rows: list


def run_seed(config: ExperimentConfig, seed: int) -> SeedResult:
    corpus = _make_corpus(config, seed)
    train, test = split_corpus(corpus, config.train_fraction, seed)
    if corpus.problem_kind == "regression":
        train, test = standardize_targets(train, test)
    order = _order_tasks(corpus, config.task_order, seed)
    stream = [train.tasks[i] for i in order]
    test_by_id = {t.task_id: t for t in test.tasks}
    kind = corpus.problem_kind

    reports: dict = {}
    curve_rows: list = []
    # the ablation streams first and keeps only its reports and curve rows:
    # binding the engine's initial state frees the ablation's, so one
    # learner's decoder statistics are resident at a time, and the state
    # left after the loop is the engine's
    models = [("engine", config.hyper)]
    if config.with_ablation:
        models.insert(0, ("ablation", ablation_hyper(config.hyper)))
    for model, hyper in models:
        state = init_state(hyper, seed)
        outcomes = []
        for step, task in enumerate(stream, start=1):
            state, outcome = learn_task(state, task)
            outcomes.append(outcome)
            if config.eval_every_task:
                learned = [test_by_id[tid] for tid in state.per_task]
                for mk, report in _engine_reports(state, learned, kind).items():
                    curve_rows.append((model, step, mk, report.mean))
            if (model == "engine" and config.checkpoint_every > 0
                    and step % config.checkpoint_every == 0):
                ckpt_dir = Path(config.output_dir)
                ckpt_dir.mkdir(parents=True, exist_ok=True)
                save_state(state, ckpt_dir / f"checkpoint_{seed}_t{step}.json")
        reports[model] = _engine_reports(state, [test_by_id[t.task_id] for t in stream], kind)

    if config.with_stl:
        weights = run_stl(train, STL_RIDGE)
        reports["stl"] = _evaluate(lambda t: t.features.T @ weights[t.task_id],
                                   [test_by_id[t.task_id] for t in stream], kind)

    # curve_<seed>.csv lists the engine's rows before the ablation's
    curve_rows.sort(key=lambda row: row[0] != "engine")
    return SeedResult(seed=seed, dataset_name=corpus.name, reports=reports,
                      outcomes=outcomes, state=state, curve_rows=curve_rows)


def run_experiment(config: ExperimentConfig) -> Path:
    """Run all seeds and write reports; returns the output directory."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "INCOMPLETE"
    marker.write_text("run in progress or aborted; outputs may be partial\n")

    results = []
    for seed in config.seeds:
        result = run_seed(config, seed)
        results.append(result)
        _write_seed_files(config, out, result)

    _write_summary(out, results[0].dataset_name, results)
    with open(out / "run_metadata.json", "w", encoding="utf-8") as fh:
        json.dump({
            "config": config.to_dict(),
            "evaluation_split": "test",
            "curve_split": "test",
        }, fh, indent=2)
    marker.unlink()
    return out


def _write_seed_files(config: ExperimentConfig, out: Path, result: SeedResult) -> None:
    seed = result.seed
    rows = [("model", "task_id", "metric", "value")]
    for model, by_metric in sorted(result.reports.items()):
        for mk, report in sorted(by_metric.items()):
            rows += [(model, task_id, mk, value) for task_id, value in report.per_task.items()]
    (out / f"per_task_{seed}.csv").write_text(metrics.csv_text(rows))
    (out / f"timeline_{seed}.csv").write_text(metrics.timeline_to_csv(result.outcomes))
    ids, weights = reconstructed_weights(result.state)
    corr = metrics.model_correlation_matrix(weights)
    (out / f"correlation_{seed}.csv").write_text(metrics.csv_text(
        [("task_id", *ids)] + [(tid, *row) for tid, row in zip(ids, corr.tolist())]))
    if config.eval_every_task:
        (out / f"curve_{seed}.csv").write_text(metrics.csv_text(
            [("model", "learned_tasks", "metric", "value")] + result.curve_rows))
    save_state(result.state, out / f"checkpoint_{seed}.json")


def _write_summary(out: Path, dataset_name: str, results: list[SeedResult]) -> None:
    rows = [("model", "dataset", "metric", "mean", "std")]
    for model in sorted({m for r in results for m in r.reports}):
        for mk in sorted({mk for r in results for mk in r.reports.get(model, {})}):
            means = [r.reports[model][mk].mean for r in results if mk in r.reports.get(model, {})]
            rows.append((model, dataset_name, mk, float(np.mean(means)), float(np.std(means))))
    rep_counts = [float(len(r.state.mlib)) for r in results]
    rows.append(("engine", dataset_name, "representatives", float(np.mean(rep_counts)),
                 float(np.std(rep_counts))))
    (out / "summary.csv").write_text(metrics.csv_text(rows))
