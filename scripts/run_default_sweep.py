#!/usr/bin/env python3
"""Run the full default sweep and emit plot-ready traces.

Covers both policies, both UE distribution cases, and the stickiness sweep
phi in {1, 2, 4} at the default protocol (100 periods x 100 replications,
the 10^4 fading-block budget). Output: traces.csv plus traces.summary.json
in the chosen directory.

Usage:
    python scripts/run_default_sweep.py [--out-dir results] [--seed N]
"""

import argparse
import dataclasses
import os
import sys
import time

from irsbandit.experiment import (
    default_config_text,
    format_summary,
    parse_config,
    run_experiment,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    spec = parse_config(default_config_text())
    spec = dataclasses.replace(
        spec, output_path=os.path.join(args.out_dir, "traces.csv")
    )
    if args.seed is not None:
        spec = dataclasses.replace(
            spec, base=dataclasses.replace(spec.base, base_seed=args.seed)
        )

    start = time.perf_counter()
    summary = run_experiment(spec)
    wall = time.perf_counter() - start
    print(format_summary(summary))
    print(f"traces written to {spec.output_path}")
    print(f"sweep wall time: {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
