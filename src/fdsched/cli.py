"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  The
FDSCHED_OUT_DIR environment variable, when set, overrides the output
directory of `run`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .harness import (
    _ROLE_SCENARIO,
    CANNED_NAMES,
    ConfigError,
    canned_experiments,
    drop_rng,
    load_config,
    run_experiment,
)
from .model import ScenarioParams, validate_params
from .scenario import build_gain_table, save_scenario


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

    dump = sub.add_parser("dump-scenario", help="write one drop's gains as JSON")
    dump.add_argument("--seed", type=int, required=True)
    dump.add_argument("--out", required=True)
    dump.add_argument("--config", help="take scenario parameters from this config")
    return parser


def _resolve_run_config(args):
    if args.canned:
        cfg = canned_experiments(args.canned,
                                 seed=args.seed if args.seed is not None else 1,
                                 iterations=args.iters if args.iters is not None else 400,
                                 out_dir=args.out,
                                 parallelism=(args.parallelism
                                              if args.parallelism is not None else 1))
    else:
        cfg = load_config(args.config)
        params = cfg.params
        if args.seed is not None:
            params = dataclasses.replace(params, rng_seed=args.seed)
        cfg = dataclasses.replace(
            cfg,
            params=params,
            iterations=args.iters if args.iters is not None else cfg.iterations,
            out_dir=args.out if args.out is not None else cfg.out_dir,
            parallelism=args.parallelism if args.parallelism is not None else cfg.parallelism,
        )
    env_out = os.environ.get("FDSCHED_OUT_DIR")
    if env_out:
        cfg = dataclasses.replace(cfg, out_dir=env_out)
    return cfg


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
        if args.command == "dump-scenario":
            if args.config:
                params = load_config(args.config).params
                params = dataclasses.replace(params, rng_seed=args.seed)
            else:
                params = ScenarioParams(rng_seed=args.seed)
            report = validate_params(params)
            if not report.ok:
                print(f"config error: {report}", file=sys.stderr)
                return 1
            gains = build_gain_table(params, drop_rng(args.seed, 0, _ROLE_SCENARIO))
            save_scenario(gains, args.out)
            print(f"wrote scenario to {args.out}")
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
