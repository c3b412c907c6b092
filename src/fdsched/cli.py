"""Command-line entry point: `run` an experiment from a config file or a
canned preset, or `validate` a config file.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  A run's
config document comes from the file or the preset; --seed, --iters, --out
and --parallelism replace its keys before it is validated.  A config with
dump_scenarios set writes each drop's gains to scenarios/drop_<k>.json.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (CANNED, CANNED_NAMES, ConfigError, config_with, load_config,
                      read_document, run_experiment)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsched",
        description="Full-duplex cell scheduling simulator: pairing and "
                    "power allocation strategies over Monte Carlo drops.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON experiment configuration")
    source.add_argument("--canned", choices=CANNED_NAMES,
                        help="built-in experiment preset")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--iters", type=int, help="iteration count override")
    run.add_argument("--out", help="output directory override")
    run.add_argument("--parallelism", type=int, help="worker process count")

    val = sub.add_parser("validate", help="validate a configuration file")
    val.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            doc = CANNED[args.canned] if args.canned else read_document(args.config)
            cfg = config_with(doc, seed=args.seed, iterations=args.iters, out_dir=args.out,
                              parallelism=args.parallelism)
            result = run_experiment(cfg)
            print(f"wrote {result['records']} records to {result['out_dir']}")
            return 0
        if args.command == "validate":
            load_config(args.config)   # raises ConfigError unless valid
            print("OK")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
