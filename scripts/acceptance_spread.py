#!/usr/bin/env python3
"""Spread of acceptance criteria 1-5 over base seeds.

Criteria 1-5 of tests/test_acceptance.py are each decided on one
100-replication estimate per cell, at base seed 12345. This script runs the
same six default-protocol cells at N base seeds, 12345 + 1000k for
k = 0 .. N - 1, and decides every criterion with the test module's own
criterion functions. A cell's replications use seeds base ..
base + replications - 1, so the seed ranges of the base seeds are disjoint.
It prints one line per base seed, then, per criterion, the mean and sd of
each statistic over the seeds and the pass rate.

Usage:
    PYTHONPATH=src python scripts/acceptance_spread.py [--seeds N]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import test_acceptance as acc  # noqa: E402

FIRST_SEED = 12345
SEED_STRIDE = 1000  # above the default 100 replications per cell


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=16)
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")

    verdicts = []
    for k in range(args.seeds):
        base = FIRST_SEED + k * SEED_STRIDE
        runs = {
            name: acc._timed_trace(dataclasses.replace(acc._cell_cfg(*cell), base_seed=base))
            for name, cell in acc.CELLS.items()
        }
        verdict = {c: decide(runs) for c, decide in acc.CRITERIA.items()}
        verdicts.append(verdict)
        print(f"seed {base}: " + "  ".join(
            f"{c}:{'PASS' if ok else 'FAIL'} "
            + ",".join(f"{name}={value:.4f}" for name, value in stats.items())
            for c, (ok, stats) in verdict.items()
        ), flush=True)

    print(f"\n{args.seeds} base seeds, {FIRST_SEED} + {SEED_STRIDE}k")
    for c in acc.CRITERIA:
        parts = []
        for name in verdicts[0][c][1]:
            values = [v[c][1][name] for v in verdicts]
            sd = np.std(values, ddof=1) if len(values) > 1 else 0.0
            parts.append(f"{name} {np.mean(values):.4f} sd {sd:.4f}")
        passes = sum(v[c][0] for v in verdicts)
        print(f"criterion {c}: pass {passes}/{len(verdicts)}  " + "  ".join(parts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
