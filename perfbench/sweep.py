"""Decoder-refit cost as d*p grows; a diagnostic outside the gated workloads.

    python3 perfbench/sweep.py [--refits 3]

Calls `lifelong.libraries.update_decoder` directly at (d, p) points from
(20, 10) up to dp = 3200, each refit folding in one task with
`REPRESENTATIVES` active representatives, and prints per point the
median seconds per refit, the bytes of the returned FeatureLibrary, and
the log-log slope from the previous point (3 means the refit costs
O((dp)^3)).  BLAS is pinned as in run.py.  The largest point holds a few
hundred MB.
"""

from __future__ import annotations

import argparse
import json
import math
from time import perf_counter

import numpy as np

import run  # noqa: F401  (pins BLAS threads and puts the sources on the path)
from instrument import library_bytes
from lifelong.libraries import init_libraries, update_decoder

POINTS = ((20, 10), (40, 20), (60, 30), (80, 40))
REPRESENTATIVES = 3
N_SAMPLES = 50
MU = 1e-3
LAMBDA2 = 0.05


def refit_seconds(d: int, p: int, refits: int, seed: int = 0) -> tuple[float, int]:
    rng = np.random.default_rng(seed)
    lib = init_libraries(d, p, seed)
    times = []
    for _ in range(refits):
        X = rng.standard_normal((d, N_SAMPLES))
        omega = X @ X.T / (2 * N_SAMPLES)
        code = rng.standard_normal(p)
        reps = [(rng.standard_normal(p), omega, 1.0 / (REPRESENTATIVES + 1))
                for _ in range(REPRESENTATIVES)]
        t0 = perf_counter()
        lib = update_decoder(lib, code, omega, reps, LAMBDA2, rng.standard_normal(d), MU)
        times.append(perf_counter() - t0)
    return float(np.median(times)), library_bytes(lib)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--refits", type=int, default=3, help="refits timed per point")
    args = parser.parse_args(argv)
    print("env " + json.dumps(run.environment()))
    previous = None
    for d, p in POINTS:
        seconds, nbytes = refit_seconds(d, p, args.refits)
        slope = (math.log(seconds / previous[1]) / math.log(d * p / previous[0])
                 if previous else None)
        print(json.dumps({"d": d, "p": p, "dp": d * p, "refit_s": seconds,
                          "state_bytes": nbytes, "loglog_slope": slope}), flush=True)
        previous = (d * p, seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
