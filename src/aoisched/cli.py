"""Command-line front end: run sweeps, grid-search parameters, self-validate.

Usage::

    aoisched run --config fig5a [--out DIR] [--seeds N] [--threads N]
    aoisched optimize --config fig7 [--out DIR]
    aoisched validate [--only SUBSTRING[,SUBSTRING...]] [--threads N]

``--config`` accepts either a YAML file path or the name of a packaged
scenario preset.  Output goes to ``--out``, else the scenario's ``output``
field, else ``$AOISCHED_OUT``, else ``./results``.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (SpecError, available_presets, load_spec,
                          optimize_experiment, run_experiment)
from .model import InfeasibleError


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisched",
        description="Scheduling simulator for freshness-constrained status "
                    "updating over an unreliable shared channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="simulate a scenario sweep and write results/histogram CSVs")
    run_p.add_argument("--config", "-c", required=True,
                       help="scenario YAML path or preset name "
                            f"(presets: {', '.join(available_presets())})")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--seeds", type=_positive_int, default=None,
                       help="override the scenario's replica count")
    run_p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes for replica simulation")

    opt_p = sub.add_parser(
        "optimize", help="grid-search randomized-policy parameters and write "
                         "a parameter CSV with confirming simulations")
    opt_p.add_argument("--config", "-c", required=True,
                       help="scenario YAML path or preset name")
    opt_p.add_argument("--out", help="output directory")

    val_p = sub.add_parser(
        "validate", help="run the built-in acceptance checks")
    val_p.add_argument("--only", default=None,
                       help="comma-separated substrings selecting checks")
    val_p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes for replica simulation")
    return parser


def _cmd_run(args) -> int:
    spec = load_spec(args.config)
    run_experiment(spec, out_dir=args.out, replicas=args.seeds,
                   threads=args.threads, log=print)
    return 0


def _cmd_optimize(args) -> int:
    spec = load_spec(args.config)
    optimize_experiment(spec, out_dir=args.out, log=print)
    return 0


def _cmd_validate(args) -> int:
    from .validate import run_checks    # here: runs never load the checks
    results = run_checks(only=args.only, threads=args.threads, log=print)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        return _cmd_validate(args)
    except (SpecError, InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
