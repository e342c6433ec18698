"""Command-line experiment runner (installed as `simulate`)."""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from .experiment import (
    ConfigError,
    OutputFormat,
    format_summary,
    parse_config,
    run_experiment,
)

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "quiet": logging.ERROR,
}


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a bandit-vs-greedy IRS association sweep from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", help="override the output trace path")
    parser.add_argument(
        "--format",
        choices=[f.value for f in OutputFormat],
        help="override the output format",
    )
    parser.add_argument("--seed", type=int, help="override base_seed")
    parser.add_argument(
        "--replications", type=int, help="override the replication count"
    )
    parser.add_argument("--periods", type=int, help="override the period count")
    return parser


def main(argv=None) -> int:
    name = os.environ.get("IRSBANDIT_LOG", "warning")
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        allowed = ", ".join(_LOG_LEVELS)
        print(f"error: IRSBANDIT_LOG: expected one of {allowed}, got {name!r}", file=sys.stderr)
        return 1
    logging.basicConfig()  # a root handler, unless the host program set one
    logging.getLogger("irsbandit").setLevel(level)

    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    overrides = {
        "experiment": {
            "base_seed": args.seed,
            "replications": args.replications,
            "periods": args.periods,
        },
        "output": {"path": args.out, "format": args.format},
    }
    try:
        spec = parse_config(text, overrides)
        summary = run_experiment(spec)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(format_summary(summary))
    print(f"traces written to {spec.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
