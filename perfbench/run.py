"""Benchmark of the lifelong stream through `lifelong.experiment.run_experiment`.

    python3 perfbench/run.py --workload stream-d40 --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one caller.  The harness feeds each
arrival to `learn_task` only after the previous one returns, in this one
process, with BLAS pinned to `BLAS_THREADS` threads.  A run streams one
engine seed per `run_experiment` call, seeds derived from `--seed`, until
`--seconds` are spent; it streams at least enough seeds for a valid
arrival p90, which it prints beside the gated metrics.

`--trace 0` prints the end-to-end metrics, measured with nothing but an
arrival timer installed.  A short first stream warms the process up and
is not measured.  Before an arrival, at most every quarter second, the
timer also times a fixed BLAS kernel (`instrument.SpeedProbe`); every
time metric but setup_s is divided by its stream's slowdown against the
kernel's reference time, so a run that lands in a window where the shared
host runs slow reads the same as one that does not.  The wall-clock
figures are printed beside them.  `--trace 1` alternates untraced and traced
streams of the same seeds and prints per-layer metrics (per traced
stream) taken from spans around every layer call, plus the tracing
overhead.  Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a stream whose arrival
raises or whose outputs fail a check counts its arrivals as failed.
Results and spans are also written under `.bench_out/`.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
WARM_UP_SIZE = 64
WARM_UP_STREAM = 999            # engine_seed(seed, 999): never one of a run's measured streams

if not (SRC / "lifelong" / "__init__.py").is_file():
    sys.exit(f"error: no lifelong sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import lifelong  # noqa: E402
import lifelong.experiment  # noqa: E402
from instrument import (CONTAINER_SPANS, ArrivalProbe, SpeedProbe, Tracer,  # noqa: E402
                        checkpoint_bytes, installed)
from workloads import (WORKLOADS, Workload, check_quality, check_reports,  # noqa: E402
                       check_resume, summary_value)

if Path(lifelong.__file__).resolve().parent != SRC / "lifelong":
    sys.exit(f"error: imported lifelong from {lifelong.__file__}, not from {SRC}")


def engine_seed(seed: int, stream: int) -> int:
    return 1000 * seed + stream


def warm_up() -> None:
    """Call each BLAS and LAPACK routine the engine uses once, so their
    lazy set-up is paid before the first arrival."""
    a = np.random.default_rng(0).standard_normal((WARM_UP_SIZE, WARM_UP_SIZE))
    system = a @ a.T / WARM_UP_SIZE + np.eye(WARM_UP_SIZE)
    np.linalg.solve(np.linalg.cholesky(system), np.ones(WARM_UP_SIZE))


def measure_setup(probes: int = SETUP_PROBES) -> float:
    """Median seconds from starting a fresh benchmark process until it is
    ready for its first arrival: imports plus BLAS warm-up."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip()
            times.append(perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or ready != "ready":
            raise RuntimeError(f"setup probe failed with exit code {child.returncode}")
    return float(np.median(times))


@dataclass
class Stream:
    """One `run_experiment` call over one engine seed."""

    scheduled: int
    wall_s: float = 0.0
    completed: int = 0
    engine_ms: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    admitted: int = 0
    checkpoint_bytes: int = 0
    peak_rss_mb: float = 0.0       # process high-water mark after the stream's resume
    engine_rmse: float = float("nan")
    stl_rmse: float = float("nan")
    checks: list = field(default_factory=list)
    error: str = ""
    slowdown: float = 1.0          # SpeedProbe.slowdown() over the stream

    @property
    def ok(self) -> bool:
        return not self.error and all(ok for _, ok, _ in self.checks)

    @property
    def failed(self) -> int:
        """Arrivals that raised or never ran; all of them if a check failed."""
        if self.error and self.completed < self.scheduled:
            return self.scheduled - self.completed
        return 0 if self.ok else self.scheduled


def run_stream(workload: Workload, seed: int, work: Path, tracer: Tracer | None = None,
               parse_intermediate: bool = True, speed: bool = False) -> Stream:
    stream = Stream(scheduled=workload.arrivals)
    out = work / f"seed{seed}"
    speed_probe = SpeedProbe() if speed else None
    probe = ArrivalProbe(workload.hyper(), speed_probe)
    wrappers = (tracer.wrappers() if tracer else []) + probe.wrappers()
    if tracer:
        tracer.seed = seed
    t0 = perf_counter()
    try:
        with installed(wrappers):
            lifelong.experiment.run_experiment(workload.config(seed, out))
            stream.wall_s = perf_counter() - t0 - (speed_probe.busy_s if speed_probe else 0.0)
            stream.checkpoint_bytes = checkpoint_bytes(out / f"checkpoint_{seed}.json")
            stream.engine_rmse = summary_value(out, "engine", "rmse")
            stream.stl_rmse = summary_value(out, "stl", "rmse")
            stream.checks = check_resume(workload, seed, out, probe)
            stream.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            stream.checks += check_reports(workload, seed, out, parse_intermediate)
    except Exception as exc:  # a failing stream is counted, not fatal
        if not stream.wall_s:
            stream.wall_s = perf_counter() - t0
        stream.error = "".join(traceback.format_exception_only(exc)).strip()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    stream.completed = probe.completed
    stream.engine_ms, stream.rounds, stream.admitted = probe.engine_ms, probe.rounds, probe.admitted
    if speed_probe:
        stream.slowdown = speed_probe.slowdown()
    return stream


def stream_until(seed, seconds, run_one, min_streams) -> list:
    """Call `run_one(engine_seed)` for consecutive engine seeds until the
    next call would end after `seconds`, and at least `min_streams` times."""
    results = []
    t0 = perf_counter()
    while True:
        results.append(run_one(engine_seed(seed, len(results))))
        n = len(results)
        if n >= min_streams and (perf_counter() - t0) * (n + 1) / n > seconds:
            return results


def scaled_arrival_ms(streams: list[Stream]) -> list[float]:
    return [ms / s.slowdown for s in streams for ms in s.engine_ms]


def end_to_end(streams: list[Stream], setup_s: float) -> dict:
    """Every time but setup_s is divided by its stream's slowdown, so it
    reads as on the reference host (see SpeedProbe)."""
    good = [s for s in streams if s.ok]
    arrival_ms = scaled_arrival_ms(streams)
    return {
        "setup_s": (setup_s, "s"),
        # median over run_experiment calls, so one stream that a burst of
        # load slows more than the probe saw does not move the run's figure
        "tasks_per_s": (float(np.median([s.completed * s.slowdown / s.wall_s for s in streams])),
                        "arrivals/s"),
        "arrival_ms.p50": (float(np.percentile(arrival_ms, 50)) if arrival_ms else 0.0, "ms"),
        # after the first stream and its resume, before the benchmark parses
        # reports; later streams add only allocator fragmentation
        "peak_rss_mb": (streams[0].peak_rss_mb, "MiB"),
        "checkpoint_mb": (float(np.mean([s.checkpoint_bytes for s in good])) / 1e6
                          if good else 0.0, "MB"),
        "rmse_engine": (float(np.mean([s.engine_rmse for s in good])) if good else 0.0,
                        "rmse"),
    }


def wall_clock(streams: list[Stream]) -> str:
    """The time metrics as the wall clock read them, before scaling."""
    arrival_ms = [ms for s in streams for ms in s.engine_ms]
    slowdowns = [s.slowdown for s in streams]
    return (f"wall clock: tasks_per_s {np.median([s.completed / s.wall_s for s in streams]):.4g}, "
            f"arrival_ms.p50 {np.percentile(arrival_ms, 50):.4g}, "
            f"p90 {np.percentile(arrival_ms, 90):.4g}; slowdown per stream "
            f"{min(slowdowns):.3f}-{max(slowdowns):.3f}")


def per_layer(tracer: Tracer, traced: list[Stream], untraced: list[Stream]) -> dict:
    n = len(traced)
    times = tracer.layer_times()

    def calls(name):
        return (times.get(name, (0, 0.0, 0.0))[0] / n, "count")

    def busy(name, column=1):
        return (times.get(name, (0, 0.0, 0.0))[column] / n, "s")

    rounds = [r for s in traced for r in s.rounds]
    traced_wall = sum(s.wall_s for s in traced)
    return {
        "libraries.update_decoder.calls": calls("libraries.update_decoder"),
        "libraries.update_decoder.busy_s": busy("libraries.update_decoder"),
        "libraries.update_encoder.busy_s": busy("libraries.update_encoder"),
        "libraries.state_bytes": (tracer.state_bytes, "bytes"),
        "assignment.solve_assignment.calls": calls("assignment.solve_assignment"),
        "assignment.solve_assignment.busy_s": busy("assignment.solve_assignment"),
        "assignment.admm_iters": (tracer.admm_iters / n, "count"),
        "assignment.capped_frac": (tracer.capped / tracer.solves if tracer.solves else 0.0,
                                   "ratio"),
        "assignment.representative_distances.busy_s": busy("assignment.representative_distances"),
        "sparse_code.encode_task.calls": calls("sparse_code.encode_task"),
        "sparse_code.encode_task.busy_s": busy("sparse_code.encode_task"),
        "sparse_code.prox_steps": (tracer.prox_steps / n, "count"),
        "engine.learn_task.busy_s": busy("engine.learn_task"),
        "engine.learn_task.self_s": busy("engine.learn_task", column=2),
        "engine.rounds_per_arrival": (float(np.mean(rounds)) if rounds else 0.0, "count"),
        "engine.admitted": (sum(s.admitted for s in traced) / n, "count"),
        "engine.save_state.calls": calls("engine.save_state"),
        "engine.save_state.busy_s": busy("engine.save_state"),
        "engine.save_state.bytes": (tracer.saved_bytes / n, "bytes"),
        "engine.load_state.busy_s": busy("engine.load_state"),
        "tasks.fit_single_task.calls": calls("tasks.fit_single_task"),
        "tasks.fit_single_task.busy_s": busy("tasks.fit_single_task"),
        "experiment.run_seed.busy_s": busy("experiment.run_seed"),
        "experiment.write_s": (traced_wall / n - busy("experiment.run_seed")[0], "s"),
        "experiment.predict.calls": calls("experiment.predict"),
        "experiment.predict.busy_s": busy("experiment.predict"),
        "baselines.run_stl.busy_s": busy("baselines.run_stl"),
        "datasets.generate_disjoint.busy_s": busy("datasets.generate_disjoint"),
        "tracing.wall_ratio": (traced_wall / sum(s.wall_s for s in untraced), "ratio"),
    }


def trace_summary(tracer: Tracer, layer_map: dict, workload: Workload) -> list[str]:
    """The layer with the largest self time, and how much of `learn_task`
    the layers it calls account for."""
    times = tracer.layer_times()
    layers = {name: v[2] for name, v in times.items() if name not in CONTAINER_SPANS}
    top = max(layers, key=layers.get) if layers else "none"
    expected = layer_map["workloads"][workload.name]["dominant_layer"]
    learn = times.get("engine.learn_task", (0, 0.0, 0.0))
    inside = tracer.child_time("engine.learn_task")
    lines = [f"largest layer self time: {top} ({layers.get(top, 0.0):.3f} s); "
             f"chosen for {expected}: {'yes' if top == expected else 'NO'}"]
    if learn[1] > 0:
        lines.append(f"engine.learn_task {learn[1]:.3f} s = layers {inside:.3f} s "
                     f"+ self {learn[2]:.3f} s ({learn[2] / learn[1]:.1%} unaccounted)")
    return lines


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    """What a number is comparable under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "lifelong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result line plus everything reported
    beside it."""
    layer_map = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    work = OUT / f"work-{os.getpid()}"
    first = engine_seed(seed, 0)
    notes: list[str] = []
    try:
        if trace:
            warm_up()
            tracer = Tracer(workload.name)
            def pair(s):
                # alternate which side runs first; the first pair runs traced
                # first, so process warm-up can only overstate the overhead
                if (s - first) % 2:
                    untraced = run_stream(workload, s, work, parse_intermediate=False)
                    return run_stream(workload, s, work, tracer, parse_intermediate=False), untraced
                traced = run_stream(workload, s, work, tracer, parse_intermediate=False)
                return traced, run_stream(workload, s, work, parse_intermediate=s == first)

            pairs = stream_until(seed, seconds, pair, min_streams=1)
            traced, untraced = [p[0] for p in pairs], [p[1] for p in pairs]
            streams = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            notes += trace_summary(tracer, layer_map, workload)
            span_file = OUT / "traces" / f"{workload.name}-seed{seed}.jsonl"
            tracer.write(span_file)
            notes.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        else:
            setup_s = measure_setup(setup_probes)
            warm_up()
            # one short stream that is not measured runs every code path
            # once and grows the heap to a checkpoint's size
            t0 = perf_counter()
            run_stream(dataclasses.replace(workload, tasks_per_cluster=2),
                       engine_seed(seed, WARM_UP_STREAM), work)
            streams = stream_until(seed, seconds - (perf_counter() - t0),
                                   lambda s: run_stream(workload, s, work, speed=True,
                                                        parse_intermediate=s == first),
                                   min_streams=workload.min_streams)
            metrics = end_to_end(streams, setup_s)
            if all(s.engine_ms for s in streams):
                notes.append(wall_clock(streams))
            arrival_ms = scaled_arrival_ms(streams)
            if arrival_ms:
                # printed, not gated: the few arrivals that take 3 to 7 block
                # rounds (0 to 3 of a seed's 30) set it, so it moves with which
                # seeds a run draws
                above = len(arrival_ms) - int(np.ceil(0.9 * len(arrival_ms)))
                notes.append(f"arrival_ms.p90 {np.percentile(arrival_ms, 90):.6g} ms "
                             f"(not gated); arrival_ms samples: {len(arrival_ms)} "
                             f"(p90 {'valid' if above >= 10 else 'INVALID'}: {above} above it)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for s in streams for c in s.checks]
    good = [s for s in streams if s.ok]
    attempted = sum(s.scheduled for s in streams)
    failed = sum(s.failed for s in streams)
    if good:
        # criterion 1 holds over the run's streams, so failing it fails them all
        checks.append(check_quality([s.engine_rmse for s in good], [s.stl_rmse for s in good]))
        if not checks[-1][1]:
            failed += sum(s.scheduled for s in good)
    failed_checks = sorted({f"{name}: {detail}" for name, ok, detail in checks if not ok})
    errors = sorted({s.error for s in streams if s.error})
    line = {
        "correct": failed == 0 and not failed_checks and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"line": line, "streams": len(streams), "failed_frac": failed / attempted,
            "checks_passed": sum(ok for _, ok, _ in checks), "checks": len(checks),
            "failed_checks": failed_checks, "errors": errors, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: warm BLAS up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        warm_up()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    env = environment()
    result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    line = result["line"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"streams {result['streams']}")
    print("env " + json.dumps(env))
    for name, metric in line["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac {result['failed_frac']:.4g} ({line['failed']} of {line['attempted']} "
          f"arrivals); checks {result['checks_passed']}/{result['checks']} passed")
    for note in result["notes"]:
        print("  " + note)
    for problem in result["failed_checks"] + result["errors"]:
        print("  FAILED " + problem)
    record = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, **result}, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
