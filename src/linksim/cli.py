"""Command line front end: run sweeps, validate configs, show build info.

Exit codes: 0 success, 1 simulation/runtime failure, 2 invalid config or
arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, feature_summary
from .sweep import ConfigError, SimConfig, format_csv, run_sweep, write_csv

ENV_WORKERS = "LINKSIM_WORKERS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksim",
        description="Batched link-level Monte Carlo simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured Eb/N0 sweep")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--out", default=None,
                     help="CSV output path (default: stdout)")
    run.add_argument("--workers", type=int, default=1,
                     help=f"batches per wave (env {ENV_WORKERS} overrides); "
                          "the CPU affinity mask sets the threads")

    val = sub.add_parser("validate", help="check a config and exit")
    val.add_argument("--config", required=True, help="JSON config file")

    sub.add_parser("info", help="print version and available blocks")
    return parser


def _load_config(path: str, seed=None) -> SimConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an int literal too long
        raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from None
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    return SimConfig.from_dict(raw)


def _positive_int(name: str, raw) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(name, f"must be a positive integer, got {raw!r}")
    return value


def _num_workers(args) -> int:
    """Worker count: ``LINKSIM_WORKERS`` if set, else ``--workers``."""
    workers = _positive_int("--workers", args.workers)
    env = os.environ.get(ENV_WORKERS)
    return workers if env is None else _positive_int(ENV_WORKERS, env)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, seed=args.seed)
    workers = _num_workers(args)
    try:
        result = run_sweep(cfg, num_workers=workers)
    except Exception as exc:  # simulation failure, not a config problem
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            write_csv(result, args.out)
        except IOError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(format_csv(result))
    return 0


def _cmd_validate(args) -> int:
    _load_config(args.config)
    print("ok")
    return 0


def _cmd_info(args) -> int:
    print(f"linksim {__version__}")
    for line in feature_summary():
        print(f"  {line}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "info": _cmd_info}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
