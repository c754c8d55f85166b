"""Command-line front end.

    gbdsde SUITE --config PATH [--seed N] [--scenarios N] [--dt X]
                 [--out-dir DIR] [--workers N]

Exit codes: 0 all criteria pass, 1 criteria failure, 2 configuration error,
3 numerical failure, 4 no criterion evaluated.
"""

from __future__ import annotations

import argparse
import sys

from numpy.linalg import LinAlgError

from .config import SUITES, ConfigError, load_config
from .flows import FlowBlowup, InversionError
from .fields import NewtonFailure
from .reflection import SimulationBlowup
from .regression import RegressionRankError
from .solver import PicardDivergence

NUMERICAL_ERRORS = (
    FlowBlowup,
    InversionError,
    NewtonFailure,
    SimulationBlowup,
    RegressionRankError,
    PicardDivergence,
    FloatingPointError,
    # a ValueError: `main` catches these before its config errors
    LinAlgError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbdsde",
        description="Monte Carlo laboratory for generalized backward doubly "
                    "stochastic equations and Neumann-boundary SPDE fields",
        allow_abbrev=False,
    )
    parser.add_argument("suite", choices=SUITES, help="experiment suite to run")
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--scenarios", type=int, default=None,
                        help="override the scenario count")
    parser.add_argument("--dt", type=float, default=None, help="override the time step")
    parser.add_argument("--out-dir", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for node-parallel suites")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "suite": args.suite,
        "seed": args.seed,
        "scenarios": args.scenarios,
        "dt": args.dt,
        "out_dir": args.out_dir,
        "workers": args.workers,
    }
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from .suites import run_suite

    try:
        code, report = run_suite(config)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # invalid suite inputs (a ConfigError among them) surface as config
        # errors with their field
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(*report, sep="\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
