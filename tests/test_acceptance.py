"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line with its measured numbers. The
heavy sweep cells (default protocol, 100 periods x 100 replications) are
shared across criteria through module-scoped fixtures.

Frozen oracle values and where they come from:
  * TWO_ARMED_ORACLE_FREQ: scripts/two_armed_oracle.py (straight-line
    re-implementation of the two-armed chain, seeds 9000..9099).
  * PANEL_SATISFACTION_ORACLE / OVERALL_SATISFACTION_ORACLE:
    scripts/calibrate_satisfaction.py --samples 400000 (direct sampling of
    the default geometry at the calibrated default gain).
"""

import dataclasses
import time

import numpy as np
import pytest

from irsbandit.channel import fill_fading
from irsbandit.config import (
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
)
from irsbandit.engine import BernoulliEnvironment, run_monte_carlo, run_replication
from irsbandit.experiment import emit_trace

CB = PolicyKind.CONTEXTUAL_BANDIT
GREEDY = PolicyKind.GREEDY

FINAL_WINDOW = 20

# frozen from scripts/two_armed_oracle.py
TWO_ARMED_ORACLE_FREQ = 0.984627
TWO_ARMED_SEED = 9000
TWO_ARMED_SEEDS = 100

# frozen from scripts/calibrate_satisfaction.py --samples 400000 (gain 61 dB)
PANEL_SATISFACTION_ORACLE = [
    0.2562, 0.2649, 0.2713, 0.2658, 0.2579, 0.2662, 0.2714, 0.2637,
    0.2587, 0.2658, 0.2726, 0.2645, 0.2590, 0.2655, 0.2716, 0.2637,
]
OVERALL_SATISFACTION_ORACLE = 0.2649


def _cell_cfg(kind, case, phi, omega=0.1):
    base = SimulationConfig()
    return dataclasses.replace(
        base,
        topology=dataclasses.replace(base.topology, distribution_case=case),
        policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
    )


def _timed_trace(cfg):
    start = time.perf_counter()
    trace = run_monte_carlo(cfg)
    return trace, time.perf_counter() - start


# the six default-protocol sweep cells used by criteria 1-5 and 7, as
# (kind, case, phi); scripts/acceptance_spread.py runs them at other seeds
CELLS = {
    "cb_r1": (CB, DistributionCase.RANDOM, 1),
    "cb_r2": (CB, DistributionCase.RANDOM, 2),
    "cb_r4": (CB, DistributionCase.RANDOM, 4),
    "gr_r": (GREEDY, DistributionCase.RANDOM, 2),
    "cb_c2": (CB, DistributionCase.CLUSTERED, 2),
    "gr_c": (GREEDY, DistributionCase.CLUSTERED, 2),
}


@pytest.fixture(scope="module")
def runs():
    """Each of CELLS' traces with its wall seconds."""
    return {name: _timed_trace(_cell_cfg(*cell)) for name, cell in CELLS.items()}


def final_window_per_replication(trace):
    return trace.per_replication[:, -FINAL_WINDOW:].mean(axis=1)


def final_window_mean(trace):
    return float(trace.mean_satisfaction[-FINAL_WINDOW:].mean())


def paired_gap_ci(cb_trace, greedy_trace):
    """Mean and 95% CI of the per-seed final-window satisfaction gap."""
    diff = final_window_per_replication(cb_trace) - final_window_per_replication(
        greedy_trace
    )
    mean = float(diff.mean())
    half = 1.96 * float(diff.std(ddof=1)) / np.sqrt(len(diff))
    return mean, mean - half, mean + half


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# Criteria 1-5: each takes the runs of CELLS and returns (passed,
# {statistic: value}); the tests below and scripts/acceptance_spread.py
# both decide through them.


def criterion_1(runs):
    cb, cb_time = runs["cb_r2"]
    greedy, gr_time = runs["gr_r"]
    gap, lo, hi = paired_gap_ci(cb, greedy)
    runtime = cb_time + gr_time
    ok = lo > 0.0 and runtime < 60.0
    return ok, {"gap": gap, "ci_lo": lo, "ci_hi": hi, "runtime_s": runtime}


def criterion_2(runs):
    f1 = final_window_mean(runs["cb_r1"][0])
    f2 = final_window_mean(runs["cb_r2"][0])
    f4 = final_window_mean(runs["cb_r4"][0])
    ok = (f4 - f2) >= -0.01 and (f2 - f1) >= -0.01
    return ok, {"phi1": f1, "phi2": f2, "phi4": f4, "phi2-phi1": f2 - f1, "phi4-phi2": f4 - f2}


def criterion_3(runs):
    trace = runs["cb_r2"][0]
    s10 = float(trace.mean_satisfaction[9])
    s100 = float(trace.mean_satisfaction[99])
    ok = (s100 - s10) >= 0.02
    return ok, {"iter10": s10, "iter100": s100, "diff": s100 - s10}


def criterion_4(runs):
    case1 = final_window_mean(runs["cb_r2"][0])
    case2 = final_window_mean(runs["cb_c2"][0])
    gap, lo, hi = paired_gap_ci(runs["cb_c2"][0], runs["gr_c"][0])
    penalty = case1 - case2
    ok = penalty >= 0.02 and lo > 0.0
    return ok, {"case1": case1, "case2": case2, "penalty": penalty, "ci_lo": lo, "ci_hi": hi}


def criterion_5(runs):
    cb = runs["cb_c2"][0].mean_satisfaction
    greedy = runs["gr_c"][0].mean_satisfaction
    gap_25 = float((cb[5:25] - greedy[5:25]).mean())
    gap_100 = float((cb[80:100] - greedy[80:100]).mean())
    drift = abs(gap_25 - gap_100)
    ok = drift <= 0.1
    return ok, {"gap_25": gap_25, "gap_100": gap_100, "drift": drift}


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4, 5: criterion_5}


def test_criterion_1_cb_beats_greedy_case1(runs):
    ok, s = criterion_1(runs)
    assert report(
        "1 cb-beats-greedy-case1",
        ok,
        f"gap={s['gap']:.4f} CI=({s['ci_lo']:.4f}, {s['ci_hi']:.4f}), "
        f"runtime={s['runtime_s']:.1f}s",
    )


def test_criterion_2_phi_trend_case1(runs):
    ok, s = criterion_2(runs)
    assert report(
        "2 phi-trend-case1",
        ok,
        f"phi1={s['phi1']:.4f} phi2={s['phi2']:.4f} phi4={s['phi4']:.4f}",
    )


def test_criterion_3_learning_trend_case1(runs):
    ok, s = criterion_3(runs)
    assert report(
        "3 learning-trend-case1",
        ok,
        f"iter10={s['iter10']:.4f} iter100={s['iter100']:.4f} diff={s['diff']:.4f} "
        "(need >= 0.02)",
    )


def test_criterion_4_clustering_penalty(runs):
    ok, s = criterion_4(runs)
    assert report(
        "4 clustering-penalty-case2",
        ok,
        f"case1={s['case1']:.4f} case2={s['case2']:.4f} penalty={s['penalty']:.4f}, "
        f"case2 gap CI=({s['ci_lo']:.4f}, {s['ci_hi']:.4f})",
    )


def test_criterion_5_gap_stability_case2(runs):
    ok, s = criterion_5(runs)
    assert report(
        "5 gap-stability-case2",
        ok,
        f"gap@25={s['gap_25']:.4f} gap@100={s['gap_100']:.4f} drift={s['drift']:.4f}",
    )


def test_criterion_6_two_armed_oracle_equivalence():
    cfg = SimulationConfig(
        periods=400,
        replications=1,
        policy=PolicyConfig(kind=CB, omega=0.1, phi=1),
    )
    fractions = []
    for i in range(TWO_ARMED_SEEDS):
        env = BernoulliEnvironment([0.9, 0.1], n_agents=1)
        res = run_replication(cfg, seed=TWO_ARMED_SEED + i, environment=env)
        picks = res.chosen[:, 0]
        fractions.append(float(np.mean(picks[199:400] == 0)))
    freq = float(np.mean(fractions))
    agreement = abs(freq - TWO_ARMED_ORACLE_FREQ)
    ok = freq >= 0.80 and agreement <= 0.02
    assert report(
        "6 two-armed-oracle",
        ok,
        f"freq={freq:.6f} oracle={TWO_ARMED_ORACLE_FREQ:.6f} "
        f"|diff|={agreement:.6f}",
    )


def test_criterion_7_invariant_suite(runs, tmp_path):
    trace = runs["cb_r2"][0]
    checks = {}

    # trace range and shape
    checks["trace-range"] = bool(
        (trace.mean_satisfaction >= 0).all()
        and (trace.mean_satisfaction <= 1).all()
        and trace.mean_satisfaction.shape == (100,)
    )

    # channel-budget accounting under the default protocol
    checks["channel-budget-10^4"] = trace.fading_blocks == 10_000

    # conservation and reward monotonicity on a fresh default replication
    cfg = SimulationConfig(replications=1)
    res = run_replication(cfg, seed=cfg.base_seed)
    checks["conservation"] = all(
        res.agents[u].rewards.sum() == res.satisfied[:, u].sum()
        for u in range(len(res.agents))
    )
    totals = np.array([a.rewards.sum() for a in res.agents])
    checks["reward-nonnegative"] = bool((totals >= 0).all())

    # threshold monotonicity: realized rates and closed-loop first period
    counts = [
        np.count_nonzero(res.rates >= thr, axis=1) for thr in (0.5, 1.0, 2.0)
    ]
    checks["threshold-monotone"] = all(
        (hi <= lo).all() for lo, hi in zip(counts, counts[1:])
    )
    low = run_replication(dataclasses.replace(cfg, rate_threshold=0.5), seed=1)
    high = run_replication(dataclasses.replace(cfg, rate_threshold=2.0), seed=1)
    checks["threshold-monotone-period1"] = not bool(
        (high.satisfied[0] & ~low.satisfied[0]).any()
    )

    # seed determinism: byte-identical CSV on rerun
    small = SimulationConfig(periods=10, replications=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trace(run_monte_carlo(small), str(a))
    emit_trace(run_monte_carlo(small), str(b))
    checks["csv-determinism"] = a.read_bytes() == b.read_bytes()

    # Exp(1) fading: mean within 1% over 1e5 draws
    draws = np.empty(100_000)
    fill_fading([(np.random.default_rng(2024), draws)], draws)
    checks["fading-mean-1pct"] = abs(float(draws.mean()) - 1.0) < 0.01

    ok = all(checks.values())
    assert report(
        "7 invariant-suite",
        ok,
        ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()),
    )


def test_criterion_8_calibration_oracle():
    oracle = np.array(PANEL_SATISFACTION_ORACLE)
    in_band = bool(
        ((oracle > 0.2) & (oracle < 0.8)).all()
        and 0.2 < OVERALL_SATISFACTION_ORACLE < 0.8
    )

    # greedy first periods sample the oracle's law exactly: uniform UEs,
    # uniform candidate panel, one fading block
    cfg = SimulationConfig(
        periods=1,
        replications=1,
        policy=PolicyConfig(kind=GREEDY, omega=0.1, phi=2),
    )
    n_panels = 16
    hits = np.zeros(n_panels)
    counts = np.zeros(n_panels)
    for i in range(2000):
        res = run_replication(cfg, seed=50_000 + i)
        for arm, sat in zip(res.chosen[0], res.satisfied[0]):
            hits[arm] += sat
            counts[arm] += 1
    freq = hits / counts
    worst = float(np.abs(freq - oracle).max())
    overall = float(hits.sum() / counts.sum())
    overall_err = abs(overall - OVERALL_SATISFACTION_ORACLE)
    ok = in_band and worst <= 0.03 and overall_err <= 0.03
    assert report(
        "8 calibration-oracle",
        ok,
        f"oracle in (0.2,0.8)={in_band}, worst panel |diff|={worst:.4f}, "
        f"overall sim={overall:.4f} oracle={OVERALL_SATISFACTION_ORACLE:.4f}",
    )
