"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .experiments import (
    check_out_dir,
    enumerate_configurations,
    emit_report,
    load_config,
    override,
    run_experiment,
)
from .swarm import ALGORITHM_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmfl",
        description="Swarm-selected federated learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment grid")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override base seed")
    run.add_argument("--runs", type=int, default=None, help="override run count")
    run.add_argument(
        "--algorithms",
        type=lambda text: tuple(name.strip() for name in text.split(",") if name.strip()),
        help="comma-separated subset of algorithms to run",
    )
    run.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="worker processes (default 1), capped at the core count",
    )

    sub.add_parser("list-algorithms", help="print the available algorithms")

    validate = sub.add_parser("validate", help="check a config without running it")
    validate.add_argument("--config", required=True, help="JSON experiment config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-algorithms":
        for name in ALGORITHM_NAMES:
            print(name)
        return 0

    try:
        config = load_config(args.config)
        if args.command == "run":
            config = override(
                config, base_seed=args.seed, runs=args.runs, algorithms=args.algorithms
            )
            if args.parallel < 1:
                raise ConfigError("--parallel must be >= 1")
            out = check_out_dir(args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        cells = enumerate_configurations(config)
        print(f"ok: {config.experiment} experiment, {len(cells)} configurations")
        for cell in cells:
            print(f"  {cell.label}")
        return 0

    try:
        # An --out that cannot be made fails here, before any session runs.
        out.mkdir(parents=True, exist_ok=True)
        table = run_experiment(config, parallel=args.parallel)
        emit_report(table, out)
    except Exception as exc:  # noqa: BLE001 - boundary: map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
