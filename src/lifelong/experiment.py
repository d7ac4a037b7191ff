"""Experiment harness: stream a corpus through the engine and baselines
over several seeds, evaluate held-out splits, and write report files.

All outputs are plain text with full-precision floats and no timestamps,
so identical configs produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .baselines import ablation_hyper, run_stl
from .datasets import (TaskCorpus, generate_disjoint, load_corpus, split_corpus,
                       standardize_targets)
from .engine import (EngineState, HyperParams, hyper_from_dict, init_state,
                     learn_task, predict, predict_labels, reconstructed_weights,
                     save_state)

TASK_ORDERS = ("random", "as_listed", "one_by_one_clusters")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict = field(default_factory=lambda: {"type": "disjoint"})
    seeds: tuple[int, ...] = tuple(range(10))
    task_order: str = "random"
    hyper: HyperParams = field(default_factory=HyperParams)
    train_fraction: float = 0.5
    output_dir: str = "results"
    with_stl: bool = True
    with_ablation: bool = True
    # calibrated so the independent baseline sits at its literature level
    # on the standardised synthetic benchmark
    stl_ridge: float = 4.0
    normalize: bool = True
    eval_every_task: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.task_order not in TASK_ORDERS:
            raise ValueError(f"task_order must be one of {TASK_ORDERS}")
        if self.dataset.get("type") not in ("disjoint", "corpus"):
            raise ValueError("dataset type must be 'disjoint' or 'corpus'")

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["seeds"] = list(self.seeds)
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        if "hyper" in payload:
            payload["hyper"] = hyper_from_dict(payload["hyper"])
        if "seeds" in payload:
            payload["seeds"] = tuple(int(s) for s in payload["seeds"])
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


def _evaluate(score_fn, label_fn, test_tasks, kind: str) -> dict[str, metrics.MetricReport]:
    """Per-task held-out metrics; `score_fn(task)` returns raw scores."""
    out: dict[str, dict] = {}
    if kind == "regression":
        out["rmse"] = {t.task_id: metrics.rmse(score_fn(t), t.targets) for t in test_tasks}
    else:
        out["auc"] = {t.task_id: metrics.auc(score_fn(t), t.targets) for t in test_tasks}
        out["accuracy"] = {t.task_id: metrics.accuracy(label_fn(t), t.targets)
                           for t in test_tasks}
    return {k: metrics.MetricReport(per_task=v, metric_kind=k) for k, v in out.items()}


def _engine_reports(state: EngineState, test_tasks, kind: str):
    return _evaluate(lambda t: predict(state, t.task_id, t.features),
                     lambda t: predict_labels(state, t.task_id, t.features),
                     test_tasks, kind)


def _stl_reports(weights: dict, test_tasks, kind: str):
    def scores(t):
        return t.features.T @ weights[t.task_id]

    def labels(t):
        return np.where(scores(t) >= 0.0, 1.0, -1.0)

    return _evaluate(scores, labels, test_tasks, kind)


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
    if config.normalize and corpus.problem_kind == "regression":
        train, test = standardize_targets(train, test)
    order = _order_tasks(corpus, config.task_order, seed)
    stream = [train.tasks[i] for i in order]
    test_by_id = {t.task_id: t for t in test.tasks}
    kind = corpus.problem_kind

    reports: dict = {}
    curve_rows: list = []

    state = init_state(config.hyper, seed)
    outcomes = []
    for step, task in enumerate(stream, start=1):
        state, outcome = learn_task(state, task)
        outcomes.append(outcome)
        if config.eval_every_task:
            learned = [test_by_id[tid] for tid in state.per_task]
            for mk, report in _engine_reports(state, learned, kind).items():
                curve_rows.append(("engine", step, mk, report.mean))
        if config.checkpoint_every > 0 and step % config.checkpoint_every == 0:
            ckpt_dir = Path(config.output_dir)
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            save_state(state, ckpt_dir / f"checkpoint_{seed}_t{step}.json")
    reports["engine"] = _engine_reports(state, [test_by_id[t.task_id] for t in stream], kind)

    if config.with_ablation:
        abl_state = init_state(ablation_hyper(config.hyper), seed)
        for step, task in enumerate(stream, start=1):
            abl_state, _ = learn_task(abl_state, task)
            if config.eval_every_task:
                learned = [test_by_id[tid] for tid in abl_state.per_task]
                for mk, report in _engine_reports(abl_state, learned, kind).items():
                    curve_rows.append(("ablation", step, mk, report.mean))
        reports["ablation"] = _engine_reports(
            abl_state, [test_by_id[t.task_id] for t in stream], kind)

    if config.with_stl:
        weights = run_stl(train, config.stl_ridge)
        reports["stl"] = _stl_reports(weights, [test_by_id[t.task_id] for t in stream], kind)

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
    lines = ["model,task_id,metric,value"]
    for model, by_metric in sorted(result.reports.items()):
        for mk, report in sorted(by_metric.items()):
            for task_id, value in report.per_task.items():
                lines.append(f"{model},{task_id},{mk},{value!r}")
    (out / f"per_task_{seed}.csv").write_text("\n".join(lines) + "\n")

    rows = metrics.representative_timeline(result.outcomes)
    (out / f"timeline_{seed}.csv").write_text(metrics.timeline_to_csv(rows))

    ids, weights = reconstructed_weights(result.state)
    corr = metrics.model_correlation_matrix(weights)
    corr_lines = ["task_id," + ",".join(ids)]
    for i, tid in enumerate(ids):
        corr_lines.append(tid + "," + ",".join(repr(float(v)) for v in corr[i]))
    (out / f"correlation_{seed}.csv").write_text("\n".join(corr_lines) + "\n")

    if config.eval_every_task:
        curve_lines = ["model,learned_tasks,metric,value"]
        for model, step, mk, value in result.curve_rows:
            curve_lines.append(f"{model},{step},{mk},{value!r}")
        (out / f"curve_{seed}.csv").write_text("\n".join(curve_lines) + "\n")

    save_state(result.state, out / f"checkpoint_{seed}.json")


def _write_summary(out: Path, dataset_name: str, results: list[SeedResult]) -> None:
    lines = ["model,dataset,metric,mean,std"]
    models = sorted({m for r in results for m in r.reports})
    for model in models:
        metric_kinds = sorted({mk for r in results for mk in r.reports.get(model, {})})
        for mk in metric_kinds:
            means = [r.reports[model][mk].mean for r in results if mk in r.reports.get(model, {})]
            lines.append(f"{model},{dataset_name},{mk},"
                         f"{float(np.mean(means))!r},{float(np.std(means))!r}")
    rep_counts = [float(len(r.state.mlib)) for r in results]
    lines.append(f"engine,{dataset_name},representatives,"
                 f"{float(np.mean(rep_counts))!r},{float(np.std(rep_counts))!r}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
