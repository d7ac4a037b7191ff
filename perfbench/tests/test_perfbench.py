"""Tests of the benchmark itself, on reduced workloads.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts the lifelong sources on the path)
import instrument  # noqa: E402
import lifelong.experiment  # noqa: E402
from lifelong.tasks import TaskData  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WRAPPED = [(m, a) for m, a, _ in instrument.SPAN_POINTS] + [("lifelong.sparse_code",
                                                             "soft_threshold")]


def reduced(workload):
    """A small version of a workload with the same switches."""
    return dataclasses.replace(workload, tasks_per_cluster=2, d=8, p=4)


def _current(targets):
    return {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_emits_every_metric(name, trace):
    result = run.benchmark(reduced(WORKLOADS[name]), seed=1, seconds=0, trace=trace,
                           setup_probes=1)
    line = result["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and not result["errors"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    json.dumps(line, allow_nan=False)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _current(WRAPPED)
    workload = reduced(WORKLOADS["stream-d40"])
    tracer = instrument.Tracer(workload.name)
    run.run_stream(workload, 1, tmp_path, tracer)
    assert tracer.spans
    assert _current(WRAPPED) == before

    spans = len(tracer.spans)
    untraced = run.run_stream(workload, 1, tmp_path)
    assert not untraced.error and len(tracer.spans) == spans


def test_layer_self_times_account_for_learn_task(tmp_path):
    workload = reduced(WORKLOADS["stream-d40"])
    tracer = instrument.Tracer(workload.name)
    run.run_stream(workload, 1, tmp_path, tracer)
    calls, busy, self_s = tracer.layer_times()["engine.learn_task"]
    assert calls == workload.arrivals
    assert busy == pytest.approx(self_s + tracer.child_time("engine.learn_task"))
    assert 0 <= self_s < busy
    task_ids = {span[4][2] for span in tracer.spans if span[0] == "libraries.update_decoder"}
    assert len(task_ids) == workload.tasks


def test_arrival_that_raises_is_counted(monkeypatch):
    """A task one dimension short reaches learn_task, which refuses it."""
    standardize = lifelong.experiment.standardize_targets

    def corrupt_last_task(train, test):
        train, test = standardize(train, test)
        bad = train.tasks[-1]
        short = TaskData(features=bad.features[:-1], targets=bad.targets,
                         loss_kind=bad.loss_kind, task_id=bad.task_id)
        object.__setattr__(train, "tasks", train.tasks[:-1] + (short,))
        return train, test

    monkeypatch.setattr(lifelong.experiment, "standardize_targets", corrupt_last_task)
    before = _current(WRAPPED + [("lifelong.experiment", "learn_task")])
    workload = reduced(WORKLOADS["stream-d40"])
    result = run.benchmark(workload, seed=1, seconds=0, trace=False, setup_probes=1)
    line = result["line"]
    assert not line["correct"]
    assert 0 < line["failed"] < line["attempted"]    # arrivals before the bad one count
    assert result["failed_frac"] == line["failed"] / line["attempted"]
    assert any("does not match the library" in e for e in result["errors"])
    assert _current(WRAPPED + [("lifelong.experiment", "learn_task")]) == before


def test_speed_probe_scales_times_and_leaves_the_wall_clock_out(tmp_path):
    workload = reduced(WORKLOADS["stream-d40"])
    stream = run.run_stream(workload, 1, tmp_path, speed=True)
    assert stream.ok and stream.slowdown > 0
    slow = dataclasses.replace(stream, slowdown=2 * stream.slowdown)
    fast, halved = run.end_to_end([stream], 1.0), run.end_to_end([slow], 1.0)
    assert halved["arrival_ms.p50"][0] == pytest.approx(fast["arrival_ms.p50"][0] / 2)
    assert halved["tasks_per_s"][0] == pytest.approx(fast["tasks_per_s"][0] * 2)
    assert halved["setup_s"] == fast["setup_s"]

    probe = instrument.SpeedProbe()
    probe.maybe_sample()
    probe.maybe_sample()                 # within GAP_S of the first: skipped
    assert len(probe.samples) == 1 and probe.busy_s == probe.samples[0]
    assert probe.slowdown() == pytest.approx(probe.samples[0] / probe.REFERENCE_S)


def test_checkpoint_bytes_include_sidecars(tmp_path):
    (tmp_path / "checkpoint_3.json").write_bytes(b"x" * 10)
    (tmp_path / "checkpoint_3.npz").write_bytes(b"x" * 5)
    (tmp_path / "checkpoint_3_t5.json").write_bytes(b"x" * 100)
    assert instrument.checkpoint_bytes(tmp_path / "checkpoint_3.json") == 15


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "stream-d40",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
