"""Command-line experiment runner.

Reads a JSON config (see ExperimentConfig), applies flag overrides,
streams the corpus through the engine and the enabled baselines, and
writes metric reports, timelines, correlation matrices, learning curves
and checkpoints under the output directory.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import TASK_ORDERS, ExperimentConfig, run_experiment
from .tasks import read_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifelong-run",
        description="Run a lifelong-learning experiment over one corpus.",
    )
    parser.add_argument("--config", help="JSON experiment config; defaults to the "
                                         "built-in disjoint benchmark")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="random seed (repeatable); overrides the config seeds")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--order", choices=TASK_ORDERS, help="task arrival order")
    parser.add_argument("--no-baselines", action="store_true",
                        help="skip the single-task and ablation baselines")
    parser.add_argument("--checkpoint-every", type=int, metavar="N",
                        help="also checkpoint the engine every N tasks")
    parser.add_argument("--eval-every-task", action="store_true",
                        help="write per-arrival learning curves (test split)")
    return parser


def load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_dict(read_json(args.config))
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.seed:
        overrides["seeds"] = tuple(args.seed)
    if args.output:
        overrides["output_dir"] = args.output
    if args.order:
        overrides["task_order"] = args.order
    if args.no_baselines:
        overrides["with_stl"] = False
        overrides["with_ablation"] = False
    if args.checkpoint_every is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if args.eval_every_task:
        overrides["eval_every_task"] = True
    if overrides:
        import dataclasses
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        out = run_experiment(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
