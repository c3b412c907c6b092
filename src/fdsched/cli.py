"""Command-line entry point: `run` an experiment from a config file or a
canned preset, or `validate` a config file.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  A run's
output directory comes from the config (or the preset), unless --out
overrides it.  A config with dump_scenarios set writes each drop's gains
to scenarios/drop_<k>.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import CANNED_NAMES, ConfigError, canned_experiments, load_config, run_experiment


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


def _resolve_run_config(args):
    if args.canned:
        return canned_experiments(args.canned,
                                  seed=args.seed if args.seed is not None else 1,
                                  iterations=args.iters if args.iters is not None else 400,
                                  out_dir=args.out,
                                  parallelism=(args.parallelism
                                               if args.parallelism is not None else 1))
    cfg = load_config(args.config)
    params = cfg.params
    if args.seed is not None:
        params = dataclasses.replace(params, rng_seed=args.seed)
    return dataclasses.replace(
        cfg,
        params=params,
        iterations=args.iters if args.iters is not None else cfg.iterations,
        out_dir=args.out if args.out is not None else cfg.out_dir,
        parallelism=args.parallelism if args.parallelism is not None else cfg.parallelism,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _resolve_run_config(args)
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
