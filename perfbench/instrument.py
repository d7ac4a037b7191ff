"""Instruments the benchmark installs on the lifelong package from outside.

The lifelong modules import each other's functions by name (for example
`from .engine import learn_task` in experiment.py), so a layer is wrapped
under the name its caller looks it up by: `lifelong.experiment.learn_task`,
`lifelong.engine.update_decoder`, and so on.  Patching the defining
module alone would miss every call.  `installed()` puts wrappers in place
for one block and always restores the originals, so a timed run after a
traced run carries no tracing.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

# (module the caller looks the name up in, attribute, span name)
SPAN_POINTS = (
    ("lifelong.experiment", "run_seed", "experiment.run_seed"),
    ("lifelong.experiment", "generate_disjoint", "datasets.generate_disjoint"),
    ("lifelong.experiment", "learn_task", "engine.learn_task"),
    ("lifelong.experiment", "save_state", "engine.save_state"),
    ("lifelong.experiment", "predict", "experiment.predict"),
    ("lifelong.experiment", "run_stl", "baselines.run_stl"),
    ("lifelong.baselines", "fit_single_task", "tasks.fit_single_task"),
    ("lifelong.engine", "fit_single_task", "tasks.fit_single_task"),
    ("lifelong.engine", "encode_task", "sparse_code.encode_task"),
    ("lifelong.engine", "representative_distances", "assignment.representative_distances"),
    ("lifelong.engine", "solve_assignment", "assignment.solve_assignment"),
    ("lifelong.engine", "update_decoder", "libraries.update_decoder"),
    ("lifelong.engine", "update_encoder", "libraries.update_encoder"),
    ("lifelong.engine", "load_state", "engine.load_state"),
)

# spans that only contain other layers; their self time is glue, not a layer
CONTAINER_SPANS = ("experiment.run_seed", "engine.learn_task")


@contextmanager
def installed(wrappers):
    """Replace `module.attr` by `make(original)` for each (module, attr,
    make) during the block, then put every original back."""
    saved = []
    try:
        for module_name, attr, make in wrappers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpeedProbe:
    """A fixed BLAS kernel, timed between arrivals to measure how fast the
    host runs right now.

    The host is shared: the same arrival runs up to a third slower from one
    few-second window to the next, and how much of a run falls in slow
    windows changes from run to run.  The kernel factors and solves the kind
    of SPD system the decoder refit solves, so it slows with the arrivals;
    dividing a stream's times by `slowdown()` reports them at the speed of a
    host on which the kernel takes `REFERENCE_S`.  The kernel uses only
    numpy, never the lifelong package, so a change to the program cannot
    move it.
    """

    SIZE = 300
    REFERENCE_S = 3.4e-3        # the kernel's time on a quiet 2-core Xeon VM
    GAP_S = 0.25                # at most one sample per this many seconds

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((self.SIZE, self.SIZE))
        self.system = a @ a.T / self.SIZE + np.eye(self.SIZE)
        self.rhs = np.ones(self.SIZE)
        self.samples: list[float] = []
        self.busy_s = 0.0           # time spent sampling, to take out of the stream's wall time
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        t0 = perf_counter()
        if t0 - self._last < self.GAP_S:
            return
        np.linalg.solve(np.linalg.cholesky(self.system), self.rhs)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.busy_s += t1 - t0
        self._last = t0

    def slowdown(self) -> float:
        """How many times slower than the reference host the kernel ran,
        as the median over the samples taken."""
        return float(np.median(self.samples)) / self.REFERENCE_S if self.samples else 1.0


def checkpoint_bytes(path) -> int:
    """Bytes one checkpoint occupies: the file plus any sidecar that shares
    its stem (`checkpoint_3.json`, `checkpoint_3.npz`, ...)."""
    path = Path(path)
    return sum(f.stat().st_size for f in path.parent.iterdir()
               if f.name.startswith(path.stem + "."))


def library_bytes(lib) -> int:
    """nbytes of every array a FeatureLibrary holds."""
    return sum(v.nbytes for v in (getattr(lib, f.name) for f in dataclasses.fields(lib))
               if isinstance(v, np.ndarray))


class ArrivalProbe:
    """Times each `learn_task` call the experiment harness makes, in timed
    and traced runs alike, and keeps what the checks need.  Given a
    `SpeedProbe`, it samples the host's speed before an arrival, outside
    the arrival's timing.

    An arrival belongs to the engine when it runs under the engine's
    hyper-parameters; the others are the ablation's.
    """

    def __init__(self, engine_hyper, speed: SpeedProbe | None = None):
        self.engine_hyper = engine_hyper
        self.speed = speed
        self.completed = 0          # arrivals that returned, both models
        self.engine_ms: list[float] = []
        self.rounds: list[int] = []
        self.admitted = 0
        self.final_state = None     # the engine's state after its last arrival

    def wrappers(self):
        return [("lifelong.experiment", "learn_task", self._wrap)]

    def _wrap(self, learn_task):
        def timed(state, data):
            if self.speed is not None:
                self.speed.maybe_sample()
            t0 = perf_counter()
            new_state, outcome = learn_task(state, data)
            elapsed_ms = (perf_counter() - t0) * 1e3
            self.completed += 1
            if state.hyper == self.engine_hyper:
                self.engine_ms.append(elapsed_ms)
                self.rounds.append(outcome.rounds)
                self.admitted += int(outcome.admitted)
                self.final_state = new_state
            return new_state, outcome
        return timed


class Tracer:
    """Spans around every layer call plus the counters measured there.

    A span is [name, parent index, start, end, arrival], where arrival is
    (workload, engine seed, task_id) for spans inside a `learn_task` call
    and (workload, engine seed, None) outside one.  Spans stay in memory
    until `write()`.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.seed = None            # engine seed of the stream being traced
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = None
        self.prox_steps = 0
        self.admm_iters = 0
        self.solves = 0
        self.capped = 0
        self.state_bytes = 0
        self.saved_bytes = 0

    def wrappers(self):
        out = [(module, attr, partial(self._span, name)) for module, attr, name in SPAN_POINTS]
        out.append(("lifelong.sparse_code", "soft_threshold", self._count_prox))
        return out

    def _span(self, name, fn):
        after = None
        if name == "assignment.solve_assignment":
            after = self._after_assignment(fn)
        elif name in ("libraries.update_decoder", "libraries.update_encoder"):
            after = self._after_library
        elif name == "engine.save_state":
            after = self._after_save
        opens_arrival = name == "engine.learn_task"

        def traced(*args, **kwargs):
            if opens_arrival:
                self._task = args[1].task_id
            span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0,
                    (self.workload, self.seed, self._task)]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                if opens_arrival:
                    self._task = None
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _count_prox(self, fn):
        def counted(*args, **kwargs):
            self.prox_steps += 1
            return fn(*args, **kwargs)
        return counted

    def _after_assignment(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.solves += 1
            self.admm_iters += result.admm_iters
            self.capped += int(result.admm_iters >= bound.arguments["max_iter"])
        return after

    def _after_library(self, args, kwargs, result):
        self.state_bytes = max(self.state_bytes, library_bytes(result))

    def _after_save(self, args, kwargs, result):
        self.saved_bytes += checkpoint_bytes(args[1] if len(args) > 1 else kwargs["path"])

    def layer_times(self):
        """Per span name: (calls, busy seconds, self seconds), where self
        time is a span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            calls_busy_self = out.setdefault(name, [0, 0.0, 0.0])
            calls_busy_self[0] += 1
            calls_busy_self[1] += end - start
            calls_busy_self[2] += end - start - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def child_time(self, parent_name: str) -> float:
        """Seconds spent in spans whose parent span is named `parent_name`."""
        return sum(end - start for _, parent, start, end, _ in self.spans
                   if parent >= 0 and self.spans[parent][0] == parent_name)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, arrival) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "arrival": list(arrival)}) + "\n")
