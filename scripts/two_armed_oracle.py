#!/usr/bin/env python3
"""Straight-line reference simulation of the two-armed satisfaction chain.

Independent oracle for the bandit policy: a self-contained re-implementation
of the epsilon-greedy association chain on two abstract arms that satisfy
with fixed probabilities. It imports nothing from the package on purpose;
its output is frozen into tests/test_acceptance.py as the expected
arm-selection frequency.

Chain semantics (pinned, shared with the simulator's determinism contract):
  * one decision and one outcome per period, single agent, arms {0, 1}
  * every period draws three uniforms on [0, 1), in this order, whatever
    the agent does: the outcome uniform u_o, then u1 and u2
  * period 1: no signal context exists, so the initial arm is
    floor(u2 * n_arms)
  * later periods:
      1. stickiness check: if the current arm's accumulated reward ties the
         maximum and the consecutive-unsatisfied counter is < phi, stay on
         it;
      2. otherwise, if u1 < omega, re-associate with arm floor(u2 * n_arms),
         else take the argmax-reward arm, ties to the lowest index;
  * outcome: satisfied iff u_o < p[arm].
  * satisfied: reward[arm] += 1 and counter := 0; unsatisfied: counter += 1.
    The counter is reset only by a satisfied period, never by re-association.

Usage:
    python scripts/two_armed_oracle.py [--seeds N] [--periods T]
"""

import argparse

import numpy as np

ARM_PROBS = (0.9, 0.1)
OMEGA = 0.1
PHI = 1
BASE_SEED = 9000
N_SEEDS = 100
PERIODS = 400
WINDOW = (200, 400)  # 1-based, inclusive


def run_chain(seed, probs, omega, phi, periods):
    """Return the per-period arm choices of one seeded chain."""
    rng = np.random.default_rng(seed)
    n_arms = len(probs)
    rewards = [0] * n_arms
    choices = np.empty(periods, dtype=np.int64)

    current = None
    streak = 0
    for t in range(periods):
        u_outcome, u1, u2 = rng.random(), rng.random(), rng.random()
        if current is None:
            current = int(u2 * n_arms)
        elif rewards[current] == max(rewards) and streak < phi:
            pass
        elif u1 < omega:
            current = int(u2 * n_arms)
        else:
            current = max(range(n_arms), key=lambda a: (rewards[a], -a))
        choices[t] = current
        satisfied = u_outcome < probs[current]
        if satisfied:
            rewards[current] += 1
            streak = 0
        else:
            streak += 1
    return choices


def best_arm_frequency(n_seeds=N_SEEDS, periods=PERIODS, window=WINDOW):
    """Mean fraction of window periods spent on the better arm, over seeds."""
    best = int(np.argmax(ARM_PROBS))
    lo, hi = window
    fracs = []
    for i in range(n_seeds):
        choices = run_chain(BASE_SEED + i, ARM_PROBS, OMEGA, PHI, periods)
        fracs.append(np.mean(choices[lo - 1 : hi] == best))
    return float(np.mean(fracs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=N_SEEDS)
    ap.add_argument("--periods", type=int, default=PERIODS)
    args = ap.parse_args()

    freq = best_arm_frequency(args.seeds, args.periods)
    print(f"arms Bernoulli{ARM_PROBS}, omega={OMEGA}, phi={PHI}")
    print(f"seeds {BASE_SEED}..{BASE_SEED + args.seeds - 1}, "
          f"periods {WINDOW[0]}-{WINDOW[1]} of {args.periods}")
    print(f"best-arm selection frequency: {freq:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
