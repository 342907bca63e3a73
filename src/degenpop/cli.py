"""Command-line entry point.

usage: degenpop <command> --config <path> [--out <dir>] [--seed <n>]

Commands: validate, simulate, adjoint, control, inequalities, sweep.
Exit codes: 0 success, 1 run failure (including failed validation),
2 configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import _SCHEMA, ConfigError, parse_config
from .runner import COMMANDS, run_experiment


def _seed(text):
    """A seed override, parsed and bounded as the config's lab.seed."""
    try:
        return _SCHEMA["lab"]["seed"][1](text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpop",
        description=(
            "Structured-population simulation, steering, and weighted-"
            "inequality experiments on a degenerate diffusion model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", required=True, help="path to the INI config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=_seed, default=None, help="seed override (at least 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("config errors:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    try:
        artifact = run_experiment(config, args.command, out_dir=args.out, seed=args.seed)
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(artifact.summary_text())
    print(f"outputs in {artifact.out_dir}: {', '.join(artifact.files)}")
    if args.command == "validate" and not artifact.summary.get("all_passed", False):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
