import copy
import dataclasses
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from irsbandit import channel, engine, policy
from irsbandit.config import (
    CHANNEL_BUDGET,
    ChannelParams,
    DistributionCase,
    PolicyConfig,
    PolicyKind,
    SimulationConfig,
    TopologyConfig,
)
from irsbandit.engine import (
    BernoulliEnvironment,
    ChannelEnvironment,
    ChannelLanes,
    Lane,
    run_lanes,
    run_monte_carlo,
    run_replication,
)
from irsbandit.policy import Agents, decision_inputs, init_association, select_irs, update
from irsbandit.topology import build_network

import reference_model

CB = PolicyKind.CONTEXTUAL_BANDIT


def _load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


two_armed_oracle = _load_script("two_armed_oracle")
calibrate_satisfaction = _load_script("calibrate_satisfaction")


def test_calibration_script_restates_the_package_defaults():
    """Criterion 8's frozen table comes from scripts/calibrate_satisfaction.py,
    which restates the default scenario instead of importing it; its
    constants must still be the package's defaults, and its sampling law
    (uniform UEs, the whole serving ring) the default one."""
    script = calibrate_satisfaction
    topo, params, sim = TopologyConfig(), ChannelParams(), SimulationConfig()
    assert script.GRID == topo.grid_side
    cells = topo.grid_side / 2.0 + np.array(topo.small_cell_offsets)
    assert np.array_equal(script.CELLS, cells)
    assert script.RING_RADIUS == topo.irs_radius
    assert script.PANELS_PER_CELL == topo.irs_per_cell
    assert script.PATHLOSS_EXPONENT == params.pathloss_exponent
    assert script.REF_LOSS_DB == params.ref_loss_db
    assert script.TX_POWER_DB == params.tx_power_db
    assert script.NOISE_POWER_DB == params.noise_power_db
    assert script.IRS_GAIN_DB == params.irs_gain_db
    assert script.RATE_THRESHOLD == sim.rate_threshold
    assert topo.distribution_case is DistributionCase.RANDOM
    assert topo.detection_radius is None


def small_cfg(**overrides):
    defaults = dict(periods=20, replications=3, base_seed=100)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestMeanSatisfaction:
    """A period's satisfaction is the fraction of its lane's agents satisfied.

    One-period Bernoulli runs whose arms satisfy always (1.0) or never (0.0).
    """

    def one_period(self, probs, n_agents, seed=0):
        return run_replication(small_cfg(periods=1), seed, BernoulliEnvironment(probs, n_agents))

    def test_half(self):
        runs = [self.one_period((1.0, 0.0), 4, seed) for seed in range(20)]
        for res in runs:
            assert res.satisfaction[0] == np.count_nonzero(res.chosen[0] == 0) / 4
        assert 0.5 in [res.satisfaction[0] for res in runs]

    def test_all(self):
        assert self.one_period((1.0,), 3).satisfaction[0] == 1.0

    def test_none(self):
        assert self.one_period((0.0,), 3).satisfaction[0] == 0.0

    def test_lanes_of_one_chunk_reduce_apart(self):
        cfg = small_cfg(periods=1)
        probs = [(1.0,), (0.0,), (1.0,), (0.0, 0.0)]
        lanes = [Lane(cfg, 0, BernoulliEnvironment(p, n)) for p, n in zip(probs, [3, 3, 2, 2])]
        assert len(list(engine._chunks(lanes))) == 1
        assert [res.satisfaction[0] for res in run_lanes(lanes)] == [1.0, 0.0, 1.0, 0.0]

    def test_zero_ues_rejected(self):
        # the environment rejects an empty lane when it is built, and the
        # policy state one it is handed directly
        with pytest.raises(ValueError, match="^n_agents: must be a positive integer, got 0$"):
            BernoulliEnvironment((1.0,), 0)
        cb = PolicyConfig()
        with pytest.raises(ValueError, match="^every lane needs at least one agent$"):
            Agents([0, 1, 2], np.arange(2), [cb, cb], lanes=[0, 0, 2])

    @pytest.mark.parametrize(
        "probs, n_agents, key",
        [
            ((1.5, 0.2), 2, r"arm_probs\[0\]"),
            ((0.2, float("nan")), 2, r"arm_probs\[1\]"),
            ((0.2, -0.1), 2, r"arm_probs\[1\]"),
            ((0.5, float("inf")), 1, r"arm_probs\[1\]"),
            ((), 1, "arm_probs"),
            ((0.5,), -1, "n_agents"),
            ((0.5,), 0, "n_agents"),
            ((0.5,), True, "n_agents"),
            ((0.5,), 2.5, "n_agents"),
        ],
        ids=[
            "above-one", "nan", "negative", "inf", "no-arms",
            "negative-agents", "no-agents", "bool-agents", "fraction",
        ],
    )
    def test_invalid_environment_rejected_at_construction(self, probs, n_agents, key):
        with pytest.raises(ValueError, match=rf"^{key}: "):
            BernoulliEnvironment(probs, n_agents)

    def test_probabilities_held_as_one_float_array(self):
        env = BernoulliEnvironment([0, 1, 0.5], np.int64(2))
        assert env.arm_probs.dtype == np.float64 and env.arm_probs.tolist() == [0.0, 1.0, 0.5]
        assert env.n_agents == 2 and env.candidate_arms(1) == [0, 1, 2]


def _draw(lanes):
    """A period's draws, its decision inputs made for agents of one default lane."""
    return lanes.draw(Agents(lanes.offsets, lanes.arms, [PolicyConfig()]))


def first_period(cfg, seed):
    """Period 1 of a replication driven step by step through ChannelLanes.

    The engine's period protocol, restated: the lane's fading, its policy
    block, the warm start, the batched link evaluation, the update. Returns
    the replication result of run_replication for the same period, the
    per-UE outcomes and the agents.
    """
    rng = np.random.default_rng(seed)
    topo = build_network(cfg.topology, rng)
    env = ChannelEnvironment(
        topo, cfg.channel, cfg.rate_threshold, cfg.topology.detection_radius
    )
    lanes = ChannelLanes([env], [rng])
    agents = Agents(env.offsets, env.arms, [cfg.policy])
    inputs = lanes.draw(agents)
    slot = init_association(agents, lanes.strongest(agents), inputs)
    rate, satisfied, secrecy = lanes.outcomes(slot)
    update(agents, satisfied)
    res = run_replication(dataclasses.replace(cfg, periods=1), seed)
    _assert_same_bits(res.chosen[0], env.arms[slot])
    _assert_same_bits(res.rates[0], rate)
    return res, (rate, satisfied, secrecy), agents


class TestRunPeriod:
    """One association period: the engine's first period and its per-UE outcomes."""

    def run_one(self, rate_threshold, seed=7):
        return first_period(small_cfg(rate_threshold=rate_threshold), seed)

    def test_tiny_threshold_satisfies_everyone(self):
        res, _, _ = self.run_one(rate_threshold=1e-12)
        assert res.satisfaction[0] == 1.0

    def test_huge_threshold_satisfies_nobody(self):
        res, _, agents = self.run_one(rate_threshold=1e6)
        assert res.satisfaction[0] == 0.0
        assert all(a.rewards.sum() == 0 for a in res.agents)
        assert all(a.rewards.sum() == 0 for a in agents)

    def test_fixed_seed_identical_outcome(self):
        a, out_a, _ = self.run_one(rate_threshold=1.0, seed=11)
        b, out_b, _ = self.run_one(rate_threshold=1.0, seed=11)
        assert np.array_equal(a.chosen, b.chosen)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.satisfied, b.satisfied)
        assert np.array_equal(a.mean_secrecy, b.mean_secrecy)
        for x, y in zip(out_a, out_b):
            assert np.array_equal(x, y)

    def test_satisfaction_matches_threshold_definition(self):
        res, (rate, satisfied, _), _ = self.run_one(rate_threshold=1.0)
        assert np.array_equal(res.satisfied[0], res.rates[0] >= 1.0)
        assert np.array_equal(satisfied, rate >= 1.0)

    def test_secrecy_within_bounds(self):
        res, (rate, _, secrecy), _ = self.run_one(rate_threshold=1.0)
        assert (secrecy >= 0).all()
        assert (secrecy <= rate).all()
        assert res.mean_secrecy[0].hex() == float(secrecy.mean()).hex()


class TestRunReplication:
    def test_series_shape_and_support(self):
        cfg = small_cfg(periods=100, replications=1)
        res = run_replication(cfg, seed=42)
        assert res.satisfaction.shape == (100,)
        # fractions of 20 UEs: every value is a multiple of 1/20
        scaled = res.satisfaction * 20
        assert np.allclose(scaled, np.round(scaled))
        assert (res.satisfaction >= 0).all() and (res.satisfaction <= 1).all()

    def test_same_seed_identical_series(self):
        cfg = small_cfg()
        a = run_replication(cfg, seed=5)
        b = run_replication(cfg, seed=5)
        assert np.array_equal(a.satisfaction, b.satisfaction)
        assert np.array_equal(a.chosen, b.chosen)

    def test_conservation_total_reward_equals_satisfied_periods(self):
        cfg = small_cfg(periods=50, replications=1)
        res = run_replication(cfg, seed=9)
        for u, agent in enumerate(res.agents):
            assert agent.rewards.sum() == res.satisfied[:, u].sum()

    def test_two_armed_deterministic_chain_absorbs(self):
        # arm probabilities {1.0, 0.0}: once the agent lands on arm 0 it is
        # satisfied forever, so the single-agent series is a monotone step
        # that ends at 1.0 (brute-force enumeration of the chain)
        cfg = small_cfg(
            periods=60,
            replications=1,
            policy=PolicyConfig(kind=CB, omega=0.1, phi=1),
        )
        for seed in range(20):
            env = BernoulliEnvironment([1.0, 0.0], n_agents=1)
            res = run_replication(cfg, seed=seed, environment=env)
            s = res.satisfaction
            assert (np.diff(s) >= 0).all()
            assert s[-1] == 1.0

    def test_threshold_monotone_on_realized_rates(self):
        cfg = small_cfg(periods=30, replications=1)
        res = run_replication(cfg, seed=21)
        counts = [
            np.count_nonzero(res.rates >= thr, axis=1)
            for thr in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        for lower, higher in zip(counts, counts[1:]):
            assert (higher <= lower).all()

    def test_threshold_monotone_closed_loop_first_period(self):
        # identical draws up to the first decision, so period 1 dominates
        low = run_replication(small_cfg(rate_threshold=0.5), seed=33)
        high = run_replication(small_cfg(rate_threshold=2.0), seed=33)
        assert not (high.satisfied[0] & ~low.satisfied[0]).any()


class TestRunMonteCarlo:
    def test_single_replication_zero_halfwidth(self):
        cfg = small_cfg(replications=1)
        trace = run_monte_carlo(cfg)
        single = run_replication(cfg, cfg.base_seed)
        assert np.array_equal(trace.mean_satisfaction, single.satisfaction)
        assert (trace.ci95_halfwidth == 0).all()

    def test_trace_invariants(self):
        trace = run_monte_carlo(small_cfg(periods=25, replications=4))
        assert trace.mean_satisfaction.shape == (25,)
        assert (trace.mean_satisfaction >= 0).all()
        assert (trace.mean_satisfaction <= 1).all()
        assert (trace.ci95_halfwidth >= 0).all()
        assert trace.cfg.periods == 25 and trace.cfg.replications == 4

    def test_budget_accounting(self):
        trace = run_monte_carlo(small_cfg(periods=20, replications=3))
        assert trace.fading_blocks == 60

    def test_deterministic_rerun(self):
        a = run_monte_carlo(small_cfg())
        b = run_monte_carlo(small_cfg())
        assert np.array_equal(a.mean_satisfaction, b.mean_satisfaction)
        assert np.array_equal(a.ci95_halfwidth, b.ci95_halfwidth)
        assert np.array_equal(a.mean_secrecy_rate, b.mean_secrecy_rate)

    def test_seed_permutation_leaves_aggregate(self):
        cfg = small_cfg(replications=5)
        trace = run_monte_carlo(cfg)
        series = [
            run_replication(cfg, cfg.base_seed + i).satisfaction
            for i in (3, 0, 4, 1, 2)
        ]
        assert np.allclose(np.mean(series, axis=0), trace.mean_satisfaction, atol=1e-12)

    def test_pooling_linearity(self):
        base = small_cfg(replications=6)
        first = dataclasses.replace(base, replications=2)
        second = dataclasses.replace(base, replications=4, base_seed=base.base_seed + 2)
        pooled = (
            2 * run_monte_carlo(first).mean_satisfaction
            + 4 * run_monte_carlo(second).mean_satisfaction
        ) / 6
        assert np.allclose(pooled, run_monte_carlo(base).mean_satisfaction, atol=1e-12)

    def test_metadata_carried(self):
        cfg = small_cfg(
            topology=TopologyConfig(distribution_case=DistributionCase.CLUSTERED),
            policy=PolicyConfig(kind=PolicyKind.GREEDY, omega=0.25, phi=4),
        )
        assert run_monte_carlo(cfg).cfg is cfg


class TestConfigValidation:
    def test_budget_enforcement(self):
        assert CHANNEL_BUDGET == 100 * 100  # the default protocol's fading blocks
        assert SimulationConfig(periods=100, replications=100).periods == 100
        with pytest.raises(ValueError, match="^enforce_channel_budget: "):
            SimulationConfig(periods=101, replications=100)

    def test_budget_enforcement_can_be_disabled(self):
        cfg = SimulationConfig(
            periods=101, replications=100, enforce_channel_budget=False
        )
        assert cfg.periods == 101

    def test_invalid_omega(self):
        with pytest.raises(ValueError, match="omega"):
            PolicyConfig(omega=1.5)

    def test_invalid_phi(self):
        with pytest.raises(ValueError, match="phi"):
            PolicyConfig(phi=0)

    def test_invalid_channel(self):
        with pytest.raises(ValueError):
            ChannelParams(pathloss_exponent=1.5)
        with pytest.raises(ValueError):
            ChannelParams(irs_gain_db=-1.0)

    def test_path_loss_exponent_whose_tenfold_overflows_rejected(self):
        """10 * n = inf would make the path loss at the 1 m clamp inf * 0 = NaN."""
        ChannelParams(pathloss_exponent=1.7e307)
        with pytest.raises(ValueError, match=r"^pathloss_exponent: "):
            ChannelParams(pathloss_exponent=1e308)

    @pytest.mark.parametrize(
        "channel, topology",
        [
            (ChannelParams(tx_power_db=3070.0), TopologyConfig()),
            (ChannelParams(irs_gain_db=3100.0), TopologyConfig()),
            (ChannelParams(noise_power_db=-3000.0), TopologyConfig()),
            (ChannelParams(ref_loss_db=-1500.0), TopologyConfig()),
            (ChannelParams(tx_power_db=1e308, irs_gain_db=1e308), TopologyConfig()),
            # a 0.5 m ring leaves the feed hop at the 1 m clamp
            (ChannelParams(tx_power_db=2940.0), TopologyConfig(irs_radius=0.5, eve_radius=1.0)),
        ],
    )
    def test_snr_factor_that_could_overflow_rejected(self, channel, topology):
        """Every budget beyond 10^300 is rejected by name; before the check, a
        budget beyond about 10^308 raised OverflowError from pow in the run."""
        with pytest.raises(ValueError, match=r"^channel\.tx_power_db: "):
            SimulationConfig(channel=channel, topology=topology)

    def test_strongest_accepted_budget_gives_finite_outcomes(self):
        # 10^(2999/10) at the strongest link, just inside the 1e300 bound
        tx = 5.0 + 2999.0 - (66.0 - 22.0 * math.log10(20.0))
        cfg = small_cfg(channel=ChannelParams(tx_power_db=tx), periods=3, replications=1)
        res = run_replication(cfg, seed=3)
        assert np.isfinite(res.rates).all() and np.isfinite(res.mean_secrecy).all()
        assert res.satisfied.all()

    @pytest.mark.parametrize(
        "channel, topology",
        [
            (ChannelParams(ref_loss_db=1e308), TopologyConfig()),
            (ChannelParams(tx_power_db=-1e308, noise_power_db=1e308), TopologyConfig()),
            (ChannelParams(pathloss_exponent=1e307), TopologyConfig()),
            # only the IRS -> eavesdropper hops, up to about 1e20 m, overflow
            (ChannelParams(pathloss_exponent=1e306), TopologyConfig(eve_radius=1e20)),
        ],
    )
    def test_config_whose_weakest_link_is_dead_rejected(self, channel, topology):
        """A link budget that is not finite down to its SNR exponent is
        rejected by name; left to the run, numpy overflows to -inf with a
        RuntimeWarning and the link is dead."""
        with pytest.raises(ValueError, match=r"^channel\.ref_loss_db: "):
            SimulationConfig(channel=channel, topology=topology)

    @pytest.mark.parametrize(
        "inside, outside",
        [
            ({"ref_loss_db": 2.0**1021}, {"ref_loss_db": 8.988465674311579e307}),
            ({"ref_loss_db": 2.0**1021}, {"ref_loss_db": math.nextafter(2.0**1021, math.inf)}),
            (
                dict.fromkeys(("tx_power_db", "noise_power_db"), 2.0**1022),
                dict.fromkeys(("tx_power_db", "noise_power_db"), math.nextafter(2.0**1022, 1e308)),
            ),
        ],
        ids=["about -2**1023 dB", "one ulp below -2**1022 dB", "one ulp above 2**1022 dB"],
    )
    @pytest.mark.filterwarnings("error")
    def test_budget_beyond_2_to_the_1022_db_rejected(self, inside, outside):
        """A finite budget beyond 2**1022 dB in magnitude is rejected by name;
        left to the run, the warm start's screen overflowed subtracting its
        margin. Every budget at 2**1022 dB, just inside, runs without a warning."""
        with pytest.raises(ValueError, match=r"^channel\.ref_loss_db: "):
            SimulationConfig(channel=ChannelParams(**outside), periods=2, replications=1)
        cfg = small_cfg(channel=ChannelParams(**inside), periods=2, replications=1)
        res = run_replication(cfg, seed=3)
        assert np.isfinite(res.rates).all() and np.isfinite(res.mean_secrecy).all()

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"rate_threshold": 0.0}, "rate_threshold: must be positive"),
            ({"rate_threshold": -1.0}, "rate_threshold: must be positive"),
            ({"replications": 0}, "replications: must be at least 1"),
            ({"periods": 0}, "periods: must be at least 1"),
            ({"base_seed": -1}, "base_seed: must be non-negative"),
        ],
    )
    def test_out_of_range_experiment_value_rejected(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimulationConfig(**changes)

    @pytest.mark.filterwarnings("error")
    def test_weakest_link_bound_skips_absent_eavesdroppers(self):
        topology = TopologyConfig(eve_radius=1e20, eavesdroppers_per_cell=0)
        channel = ChannelParams(pathloss_exponent=1e306)
        cfg = small_cfg(channel=channel, topology=topology, periods=2, replications=1)
        res = run_replication(cfg, seed=3)
        assert not res.satisfied.any() and (res.mean_secrecy == 0.0).all()


THRESHOLDS = [1e-12, 0.5, 1.0, 2.0, 10.0, 1023.5, 1024.0, 1e6]


def _steps(x: float, n: int, toward: float) -> list[float]:
    out = []
    for _ in range(n):
        x = math.nextafter(x, toward)
        out.append(x)
    return out


def _check_cutoff(threshold: float, xs: np.ndarray) -> None:
    """engine._log2_cutoff is the least double whose math.log2 reaches threshold."""
    c = engine._log2_cutoff(threshold)
    assert (c == math.inf) == (math.log2(sys.float_info.max) < threshold)
    if c < math.inf:
        assert math.log2(c) >= threshold > math.log2(math.nextafter(c, 0.0))
        xs = [*xs.tolist(), c, *_steps(c, 64, 0.0), *_steps(c, 64, math.inf)]
    for x in xs:
        assert (x >= c) == (math.log2(x) >= threshold), (threshold, x)


def _log_uniform(seed: int, n: int) -> np.ndarray:
    """n doubles log-uniform in [1, 1e300], the range of 1 + snr."""
    return 10.0 ** np.random.default_rng(seed).uniform(0.0, 300.0, n)


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_log2_cutoff_at_listed_thresholds(threshold):
    _check_cutoff(threshold, _log_uniform(0, 2000))


@settings(max_examples=200, deadline=None)
@given(threshold=st.floats(min_value=0.0, max_value=1100.0, exclude_min=True))
def test_log2_cutoff_at_any_threshold(threshold):
    _check_cutoff(threshold, _log_uniform(1, 64))


def test_log2_never_decreases():
    """Secrecy is [log2(x) - log2(y)]+ with x = 1 + snr, y = 1 + eve snr, and
    the engine takes it as 0 without a log2 wherever x <= y."""
    x = _log_uniform(2, 20_000)
    pairs = list(zip(x.tolist(), np.sort(x).tolist()))
    for a in [*x[:200].tolist(), 1.0, 2.0, sys.float_info.max]:
        pairs += [(a, a)] + [(b, a) for b in _steps(a, 32, 0.0)]
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        assert math.log2(lo) - math.log2(hi) <= 0.0


INT_FIELDS = [
    (cls, f.name)
    for cls in (TopologyConfig, ChannelParams, PolicyConfig, SimulationConfig)
    for f in dataclasses.fields(cls)
    if f.type == "int"
]


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"], ids=["fraction", "float", "bool", "str"])
@pytest.mark.parametrize("cls, key", INT_FIELDS, ids=[f"{c.__name__}.{k}" for c, k in INT_FIELDS])
def test_integer_fields_reject_non_integers(cls, key, value):
    extra = {"enforce_channel_budget": False} if cls is SimulationConfig else {}
    with pytest.raises(ValueError, match=rf"^{key}: must be an integer, got {value!r}$"):
        cls(**{key: value}, **extra)
    assert cls(**{key: np.int64(2)}, **extra) is not None  # numpy integers are integers


def test_every_int_field_is_checked():
    assert {k for _, k in INT_FIELDS} == {
        "small_cell_count", "irs_per_cell", "eavesdroppers_per_cell", "ue_count",
        "cluster_size", "phi", "base_seed", "periods", "replications",
    }


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_ues=st.integers(min_value=1, max_value=12),
    n_panels=st.integers(min_value=2, max_value=10),
    n_eves=st.integers(min_value=0, max_value=3),
    irs_radius=st.floats(min_value=2.0, max_value=40.0),
    case=st.sampled_from(list(DistributionCase)),
    detection_radius=st.one_of(st.none(), st.floats(min_value=1.0, max_value=80.0)),
    exponent=st.floats(min_value=2.0, max_value=4.0),
    ref_loss_db=st.floats(min_value=-20.0, max_value=60.0),
    noise_power_db=st.floats(min_value=-30.0, max_value=30.0),
    threshold=st.floats(min_value=0.01, max_value=8.0),
)
def test_environment_matches_scalar_channel_bit_for_bit(
    seed, n_ues, n_panels, n_eves, irs_radius, case, detection_radius, exponent,
    ref_loss_db, noise_power_db, threshold,
):
    """The per-replication budgets reproduce the scalar channel functions exactly.

    The lane's fading is reference_model.draw_fading's, in its block
    order, and the policy block follows it; rssi covers every slot at once; outcomes is called once per
    candidate rank k, each UE on its k-th candidate (or its last one), so
    every (UE, candidate) pair is evaluated.
    """
    rng = np.random.default_rng(seed)
    topo = build_network(
        TopologyConfig(
            irs_per_cell=n_panels,
            irs_radius=irs_radius,
            eavesdroppers_per_cell=n_eves,
            eve_radius=irs_radius + 5.0,
            ue_count=n_ues,
            distribution_case=case,
            cluster_size=1,
        ),
        rng,
    )
    params = ChannelParams(
        pathloss_exponent=exponent,
        ref_loss_db=ref_loss_db,
        noise_power_db=noise_power_db,
    )
    env = ChannelEnvironment(topo, params, threshold, detection_radius)
    twin = copy.deepcopy(rng)
    candidates = [
        reference_model.candidate_irs_distances(u, topo, detection_radius)[0]
        for u in range(n_ues)
    ]
    real = reference_model.draw_fading(topo, candidates, twin)
    lanes = ChannelLanes([env], [rng])
    agents = Agents(env.offsets, env.arms, [PolicyConfig()])
    inputs = lanes.draw(agents)
    flat = np.concatenate([real.g_bs_irs, list(real.g_irs_ue.values()), real.g_irs_eve.ravel()])
    _assert_same_bits(lanes.gains, flat)
    # then the policy block
    for got, want in zip(inputs, decision_inputs(agents, twin.random((n_ues, 2))), strict=True):
        _assert_same_bits(got, want)
    assert rng.bit_generator.state == twin.bit_generator.state
    rssi = lanes.rssi()
    sizes = np.diff(env.offsets)
    outcomes = [
        lanes.outcomes(env.offsets[:-1] + np.minimum(k, sizes - 1))
        for k in range(sizes.max())
    ]
    for u, ue in enumerate(topo.ue_xy.tolist()):
        arms = env.arms[env.offsets[u] : env.offsets[u + 1]].tolist()
        want_arms, _ = reference_model.candidate_irs_distances(u, topo, detection_radius)
        assert arms == want_arms
        for k, i in enumerate(arms):
            bs = topo.cell_xy[topo.panel_cell[i]].tolist()
            irs = topo.panel_xy[i].tolist()
            g1 = real.g_bs_irs[i]
            expected = reference_model.rssi_db(bs, irs, ue, g1, real.g_irs_ue[i, u], params)
            assert rssi[env.offsets[u] + k].hex() == float(expected).hex()

            rate = reference_model.achievable_rate(
                reference_model.cascaded_snr(bs, irs, ue, g1, real.g_irs_ue[i, u], params)
            )
            r_eve = max(
                (
                    reference_model.achievable_rate(
                        reference_model.cascaded_snr(
                            bs, irs, eve, g1, real.g_irs_eve[i, e], params
                        )
                    )
                    for e, eve in enumerate(topo.eve_xy.tolist())
                ),
                default=0.0,
            )
            got_rate, got_sat, got_secrecy = (a[u] for a in outcomes[k])
            assert float(got_rate).hex() == float(rate).hex()
            assert got_sat == (rate >= threshold)
            expected_secrecy = reference_model.secrecy_rate(rate, r_eve)
            assert float(got_secrecy).hex() == float(expected_secrecy).hex()


def test_outcomes_without_rates_match_outcomes_with_them():
    """Without rates, outcomes takes no rate but the same satisfaction and
    secrecy, bit for bit, also in a chunk whose streams have no, one or two
    eavesdroppers per cell (panels without one read an eavesdropper SNR of 0,
    so there the secrecy is the rate)."""
    envs, rngs, eves = [], [], [0, 2, 1, 0]
    for seed, n_eves in zip([5, 6, 7, 8], eves):
        rng = np.random.default_rng(seed)
        topo = build_network(TopologyConfig(eavesdroppers_per_cell=n_eves), rng)
        envs.append(ChannelEnvironment(topo, ChannelParams(), 1.0))
        rngs.append(rng)
    lanes = ChannelLanes(envs, rngs)
    eveless = np.repeat([n == 0 for n in eves], [env.n_agents for env in envs])
    sizes = np.diff(lanes.offsets)
    leaked = 0
    for k in range(4):
        _draw(lanes)
        slot = lanes.offsets[:-1] + np.minimum(k, sizes - 1)
        rate, satisfied, secrecy = lanes.outcomes(slot)
        none, light_satisfied, light_secrecy = lanes.outcomes(slot, rates=False)
        assert none is None
        _assert_same_bits(light_satisfied, satisfied)
        _assert_same_bits(light_secrecy, secrecy)
        _assert_same_bits(satisfied, rate >= 1.0)
        _assert_same_bits(secrecy[eveless], rate[eveless])
        leaked += np.count_nonzero(secrecy)
    assert 0 < leaked < 4 * len(slot)


def test_lane_means_are_the_records_means():
    """Each lane's per-period satisfaction is its record's row mean, bit for bit,
    and both series are its one-lane run's: in a chunk of 1, 20, 20 and 3
    agents (three runs of equal-size lanes) and in a chunk whose channel
    lanes share streams of 20 and of 7 UEs. The series are C-contiguous rows."""
    cfg = small_cfg(periods=6)
    bernoulli = [
        Lane(cfg, 3 + k, BernoulliEnvironment((0.3, 0.6, 0.9), n))
        for k, n in enumerate([1, 20, 20, 3])
    ]
    channel_lanes = [
        Lane(
            small_cfg(
                periods=6,
                topology=TopologyConfig(ue_count=ues),
                policy=PolicyConfig(kind=kind, phi=phi),
            ),
            seed,
        )
        for seed, ues in ((11, 20), (12, 7))
        for kind, phi in ((CB, 1), (PolicyKind.GREEDY, 1), (CB, 4))
    ]
    assert len(engine._streams(channel_lanes)[0]) == 2
    for lanes in (bernoulli, channel_lanes):
        assert len(list(engine._chunks(lanes))) == 1
        light = run_lanes(lanes)
        for lane, res, lean in zip(lanes, run_lanes(lanes, record=True), light):
            alone = run_replication(*lane)
            _assert_same_bits(res.satisfaction, res.satisfied.mean(axis=1))
            for series in ("satisfaction", "mean_secrecy"):
                got = getattr(res, series)
                assert got.flags.c_contiguous and got.dtype == np.float64
                _assert_same_bits(got, getattr(alone, series))
                _assert_same_bits(getattr(lean, series), got)


def _stream_envs(n_streams, topology=TopologyConfig(detection_radius=25.0)):
    """One ChannelEnvironment and Generator per seed 1..n_streams; UE 0 of the
    first sits on its serving cell's base station, equidistant from the
    ring's panels at 0 and pi, so two of its candidate slots have equal budgets."""
    envs, rngs = [], []
    for seed in range(1, n_streams + 1):
        rng = np.random.default_rng(seed)
        topo = build_network(topology, rng)
        if seed == 1:
            topo.ue_xy[0] = topo.cell_xy[0]
        envs.append(ChannelEnvironment(topo, ChannelParams(), 1.0, topology.detection_radius))
        rngs.append(rng)
    return envs, rngs


@pytest.mark.parametrize("stream", [None, [0, 1, 0, 2, 1, 0], [0, 0, 0]])
def test_warm_start_is_each_lanes_one_lane_argmax(stream):
    """strongest() gives every lane's agent segment_argmax of its one-lane
    rssi(), and rssi() every stream slot's one-lane RSSI bit for bit: in
    chunks of lone streams, of shared and lone streams, and of one stream
    shared by every lane, with candidate counts that differ between agents.
    An exact tie, made by giving two slots of equal budget equal gains,
    goes to the lower slot."""
    envs, rngs = _stream_envs(3 if stream is None else max(stream) + 1)
    layout = engine._Layout(envs, stream)
    lanes = ChannelLanes(envs, rngs, layout)
    policies = [PolicyConfig()] * len(layout.stream)
    agents = Agents(layout.offsets, layout.arms, policies, layout.agents)
    assert agents.width == 0
    lanes.draw(agents)
    # the tie: UE 0 of stream 0, at its cell's centre, on two ring panels of equal budget
    env = envs[0]
    first = list(range(env.offsets[0], env.offsets[1]))
    budget = env.links(np.arange(len(env.arms)))[1]
    a, b = next((a, b) for a in first for b in first if a < b and budget[a] == budget[b])
    n_bs = env.blocks[0]
    for s in (a, b):
        lanes.gains[env.arms[s]] = 1e3  # BS->IRS
        lanes.gains[n_bs + s] = 1e3  # IRS->UE of slot s
    parts = np.cumsum([0] + [sum(e.blocks) for e in envs])
    alone, want = [], []
    for env, lo, hi in zip(envs, parts, parts[1:]):
        one = ChannelLanes([env], [None])
        one.gains[:] = lanes.gains[lo:hi]
        alone.append(one.rssi())
        one_lane = Agents(env.offsets, env.arms, [PolicyConfig()])
        want.append(policy.segment_argmax(alone[-1], one_lane))
    assert alone[0][a] == alone[0][b] == alone[0][first].max()
    assert want[0][0] == a
    every = lanes.rssi()
    _assert_same_bits(every, np.concatenate(alone))
    some = np.arange(len(every))[::-7]  # any stream slots, in any order
    _assert_same_bits(lanes.rssi(some), every[some])
    best = lanes.strongest(agents)
    for l, s in enumerate(layout.stream):
        lo, hi = layout.agents[l], layout.agents[l + 1]
        _assert_same_bits(best[lo:hi] - layout.slots[l], want[s])
    # aligned with every lane
    init_association(agents, best, decision_inputs(agents, np.zeros((len(agents), 2))))


def _ulp_walk(start: float, n: int, budget: float):
    """n consecutive doubles from start, each with the RSSI rssi() takes at
    budget (math.log10) and the one the screen reads (np.log10 over an array)."""
    gains = (np.float64(start).view(np.int64) + np.arange(n)).view(np.float64)
    exact = np.array([10.0 * math.log10(g) + budget for g in gains.tolist()])
    approx = np.log10(gains)
    approx *= 10.0
    approx += budget
    return gains, exact, approx


def _near_tie_gains(budget: float) -> dict:
    """Gains for a lower and a higher slot of equal budget, and which of the
    two must win, by a fixed walk over 4096 consecutive doubles from 1.7."""
    gains, exact, approx = _ulp_walk(1.7, 4096, budget)
    cases = {"equal gains": (gains[0], gains[0], 0)}
    # an exact tie the screen reads as a gap, upward
    tie = ((exact[:-1] == exact[1:]) & (approx[:-1] < approx[1:])).nonzero()[0]
    if len(tie):
        i = tie[0]
        cases["exact tie, screen prefers the higher slot"] = (gains[i], gains[i + 1], 0)
    # a one-ulp gap the screen does not see
    gap = ((exact[1:] == np.nextafter(exact[:-1], np.inf)) & (approx[:-1] == approx[1:]))
    if gap.any():
        i = gap.nonzero()[0][0]
        cases["one-ulp gap, higher slot wins"] = (gains[i], gains[i + 1], 1)
        cases["one-ulp gap, lower slot wins"] = (gains[i + 1], gains[i], 0)
    return cases


NEAR_TIES = [
    "equal gains",
    "exact tie, screen prefers the higher slot",
    "one-ulp gap, higher slot wins",
    "one-ulp gap, lower slot wins",
]


@pytest.mark.parametrize("stream", [None, [0, 0]], ids=["lone", "shared"])
@pytest.mark.parametrize("case", NEAR_TIES)
def test_warm_start_decides_near_ties_by_the_exact_rssi(case, stream):
    """UE 0 sits on its cell's base station, so two of its slots share one
    budget; their gains make the two strongest RSSIs an exact tie, a tie
    that np.log10 reads as a gap, or a one-ulp gap that np.log10 does not
    see. strongest() picks what segment_argmax(rssi()) and the scalar
    reference_model.rssi_db pick: the larger exact RSSI, ties to the lower
    slot, in a lone stream and in two lanes sharing it."""
    rng = np.random.default_rng(1)
    topo = build_network(TopologyConfig(detection_radius=25.0), rng)
    topo.ue_xy[0] = topo.cell_xy[0]
    params = ChannelParams()
    env = ChannelEnvironment(topo, params, 1.0, 25.0)
    layout = engine._Layout([env], stream)
    lanes = ChannelLanes([env], [rng], layout)
    _draw(lanes)
    first = range(env.offsets[0], env.offsets[1])
    budget = env.links(np.arange(len(env.arms)))[1]
    a, b = next((a, b) for a in first for b in first if a < b and budget[a] == budget[b])
    cases = _near_tie_gains(float(budget[a]))
    if case not in cases:
        pytest.skip("np.log10 and math.log10 agree on every gain walked")
    g_a, g_b, winner = cases[case]
    n_bs = env.blocks[0]
    for s in first:  # UE 0's other candidates sit far below
        lanes.gains[n_bs + s] = 1e-6
    for s, g in ((a, g_a), (b, g_b)):
        lanes.gains[env.arms[s]] = 1.0  # BS->IRS
        lanes.gains[n_bs + s] = g  # IRS->UE of slot s

    exact = lanes.rssi()
    low, high = sorted([exact[a], exact[b]])
    assert high == (np.nextafter(low, np.inf) if case.startswith("one-ulp") else low)
    want = policy.segment_argmax(exact, policy.Segments(env.offsets))
    assert want[0] == (a, b)[winner]
    ue = topo.ue_xy[0].tolist()
    reference = [
        reference_model.rssi_db(
            topo.cell_xy[topo.panel_cell[arm]].tolist(), topo.panel_xy[arm].tolist(), ue,
            float(lanes.gains[arm]), float(lanes.gains[n_bs + s]), params,
        )
        for s, arm in zip(first, env.arms[first.start : first.stop].tolist())
    ]
    assert first.start + reference_model.argmax_lowest(reference) == want[0]
    policies = [PolicyConfig()] * len(layout.stream)
    agents = Agents(layout.offsets, layout.arms, policies, layout.agents)
    best = lanes.strongest(agents)
    for l in range(len(layout.stream)):
        _assert_same_bits(best[layout.agents[l] : layout.agents[l + 1]] - layout.slots[l], want)


@pytest.mark.parametrize(
    "params, far",
    [
        (ChannelParams(ref_loss_db=1e308), None),
        (ChannelParams(ref_loss_db=2.0**1022), None),  # finite, about -2**1023 dB
        # a path loss exponent of 1e306 overflows only hops beyond about 1e17 m
        (ChannelParams(pathloss_exponent=1e306), "eve"),
        (ChannelParams(pathloss_exponent=1e306), "ue"),
    ],
    ids=["every budget", "every budget finite", "eavesdropper budgets only", "UE budgets only"],
)
@pytest.mark.filterwarnings("error")
def test_environment_whose_budget_is_not_finite_rejected(params, far):
    """A budget of -inf, on every link or only on the eavesdropper or the UE
    links, or a finite one beyond 2**1022 dB, is rejected by the key
    SimulationConfig names, without a numpy warning, so the warm start never
    reads an RSSI of -inf nor overflows in its screen."""
    topo = build_network(TopologyConfig(), np.random.default_rng(0))
    if far == "eve":
        topo = dataclasses.replace(topo, eve_xy=topo.eve_xy + 1e20)
    elif far == "ue":
        topo.ue_xy[0] = 1e20  # served by its nearest cell, 1e20 m from its ring
    with pytest.raises(ValueError, match=r"^channel\.ref_loss_db: "):
        ChannelEnvironment(topo, params, 1.0)


def _largest_accepted_tx_power_db(topology) -> float:
    """The largest tx_power_db SimulationConfig accepts on topology, to the ulp."""

    def accepted(tx):
        try:
            SimulationConfig(topology=topology, channel=ChannelParams(tx_power_db=tx))
        except ValueError:
            return False
        return True

    tx = 3000.0 - ChannelParams().irs_gain_db + 22.0 * math.log10(topology.irs_radius)
    while not accepted(tx):
        tx = math.nextafter(tx, -math.inf)
    while accepted(math.nextafter(tx, math.inf)):
        tx = math.nextafter(tx, math.inf)
    return tx


@pytest.mark.parametrize("eves", [2, 0], ids=["eavesdroppers", "no-eavesdroppers"])
@pytest.mark.filterwarnings("error")
def test_environment_whose_snr_factor_overflows_rejected(eves):
    """A channel whose SNR factor overflows, built in library code past
    SimulationConfig's check, is rejected by the constructor as
    channel.tx_power_db, the key SimulationConfig names; left to pow, it
    raised OverflowError in the constructor (from the eavesdroppers' factors)
    or, without eavesdroppers, at the first links read. The default channel
    and the largest tx power SimulationConfig accepts still construct, with
    every SNR factor finite."""
    topology = TopologyConfig(eavesdroppers_per_cell=eves)
    topo = build_network(topology, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^channel\.tx_power_db: "):
        ChannelEnvironment(topo, ChannelParams(tx_power_db=3100.0), 1.0)
    edge = ChannelParams(tx_power_db=_largest_accepted_tx_power_db(topology))
    for params in (ChannelParams(), edge):
        env = ChannelEnvironment(topo, params, 1.0)
        budget = env.links(np.arange(len(env.arms)))[1]
        assert np.isfinite(channel.snr_factors(budget, params)).all()



@pytest.mark.parametrize("eves", [2, 0], ids=["eavesdroppers", "no-eavesdroppers"])
def test_environment_whose_faded_snr_factor_could_overflow_rejected(eves):
    """A finite SNR factor that two fading gains could scale past the largest
    double is rejected too: tx 3050 (largest factors near 6.6e306) used to
    construct, and a long run's faded eavesdropper powers overflowed to inf."""
    topo = build_network(TopologyConfig(eavesdroppers_per_cell=eves), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^channel\.tx_power_db: "):
        ChannelEnvironment(topo, ChannelParams(tx_power_db=3050.0), 1.0)

@pytest.mark.parametrize("scale", [1e155, 1e300])
@pytest.mark.filterwarnings("error")
def test_warm_start_on_overflowing_screens_takes_the_exact_budgets(scale):
    """On a layout scaled so far up that numpy's squared hop lengths overflow
    (an accepted config), every screened budget is not finite: the warm
    start takes the exact budget of every slot (links) before its winners,
    and still picks segment_argmax of the exact rssi(), the slots
    reference_model picks too."""
    s = scale
    cfg = SimulationConfig(
        topology=TopologyConfig(
            grid_side=200.0 * s,
            small_cell_count=2,
            small_cell_offsets=((-50.0 * s, -50.0 * s), (50.0 * s, 50.0 * s)),
            irs_radius=10.0 * s,
            eve_radius=20.0 * s,
        ),
        channel=ChannelParams(pathloss_exponent=2.0),
        enforce_channel_budget=False,
        periods=2,
        replications=1,
    )
    seed = 5
    rng = np.random.default_rng(seed)
    env = ChannelEnvironment(build_network(cfg.topology, rng), cfg.channel, cfg.rate_threshold)
    lanes = ChannelLanes([env], [rng])
    _draw(lanes)
    read = []
    links = lanes.links
    lanes.links = lambda slots: read.append(len(slots)) or links(slots)
    best = lanes.strongest(Agents(env.offsets, env.arms, [cfg.policy]))
    assert read[0] == len(env.arms)  # the fallback, before any winner is read
    want = policy.segment_argmax(lanes.rssi(), policy.Segments(env.offsets))
    _assert_same_bits(best, want)
    reference = reference_model.channel_replication(cfg, seed)
    _assert_same_bits(env.arms[best], reference.chosen[0])
    _assert_same_bits(run_replication(cfg, seed).chosen, reference.chosen)


def _prebuilt_environment():
    cfg = small_cfg(periods=2, replications=1)
    topo = build_network(cfg.topology, np.random.default_rng(1))
    return ChannelEnvironment(topo, cfg.channel, cfg.rate_threshold)


# (field, the lane's cfg, seed and environment, its environment built when run)
BAD_LANES = [
    pytest.param("seed", lambda cfg: (cfg, -1, None), id="seed-negative"),
    pytest.param("seed", lambda cfg: (cfg, 1.5, None), id="seed-float"),
    pytest.param("seed", lambda cfg: (cfg, True, None), id="seed-bool"),
    pytest.param("seed", lambda cfg: (cfg, "3", None), id="seed-str"),
    pytest.param("environment", lambda cfg: (cfg, 1, object()), id="environment-object"),
    pytest.param(
        "environment", lambda cfg: (cfg, 1, _prebuilt_environment()), id="environment-channel"
    ),
    pytest.param("environment", lambda cfg: (cfg, 1, "x"), id="environment-str"),
    pytest.param("cfg", lambda cfg: (None, 1, None), id="cfg-none"),
    pytest.param("cfg", lambda cfg: (TopologyConfig(), 1, None), id="cfg-topology"),
]


@pytest.mark.parametrize("entry", ["run_lanes", "run_replication"])
@pytest.mark.parametrize("field, make", BAD_LANES)
def test_lane_the_engine_cannot_run_is_rejected_by_field(entry, field, make):
    """A lane's seed must be a non-negative integer and not a bool, its cfg a
    SimulationConfig, and its environment None or a BernoulliEnvironment (a
    ChannelEnvironment is what the engine builds from the cfg, never a
    lane's). Either entry point raises a ValueError naming the field."""
    lane = Lane(*make(small_cfg(periods=2, replications=1)))
    with pytest.raises(ValueError, match=f"^{field}: "):
        if entry == "run_lanes":
            run_lanes([Lane(small_cfg(periods=2, replications=1), 0), lane])
        else:
            run_replication(*lane)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: run_monte_carlo(None), id="monte-carlo-none"),
        pytest.param(lambda: run_monte_carlo(TopologyConfig()), id="monte-carlo-topology"),
        pytest.param(
            lambda: engine.run_cells([small_cfg(periods=2, replications=1), 5]), id="cells-int"
        ),
    ],
)
def test_cell_the_engine_cannot_run_is_rejected_by_cfg(call):
    """run_cells, and so run_monte_carlo, checks every cfg before it reads
    any: one that is not a SimulationConfig raises a ValueError naming cfg,
    not an AttributeError on its replications, and no cell runs."""
    with pytest.raises(ValueError, match="^cfg: "):
        call()


def test_lane_seed_may_be_any_non_negative_integer():
    """Seed 0 and numpy integers are seeds like the ints they equal."""
    cfg = small_cfg(periods=2, replications=1)
    env = BernoulliEnvironment((0.3, 0.7), n_agents=4)
    for seed in (np.uint32(0), np.int64(5)):
        for e in (None, env):
            want = run_replication(cfg, int(seed), e)
            _assert_same_bits(run_replication(cfg, seed, e).chosen, want.chosen)


DENSE_OFFSETS = ((-50.0, -50.0), (50.0, -50.0), (-50.0, 50.0), (50.0, 50.0))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_panels=st.integers(min_value=16, max_value=32),
    detection_radius=st.floats(min_value=5.0, max_value=45.0),
    spread=st.floats(min_value=0.0, max_value=20.0),
    stream=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=5),
    tie=st.booleans(),
)
def test_screened_warm_start_is_the_exact_argmax_on_dense_rings(
    seed, n_panels, detection_radius, spread, stream, tie
):
    """On dense rings (16-32 panels per cell) with clustered UEs and a
    detection radius, every lane agent's strongest() slot is its stream
    agent's segment_argmax of the exact rssi(), in chunks whose lanes share
    streams; with tie, UE 0 of the first stream sits on a base station and
    two of its equal-budget slots get equal gains, an exact tie."""
    ids = {}
    stream = [ids.setdefault(s, len(ids)) for s in stream]
    topology = TopologyConfig(
        small_cell_offsets=DENSE_OFFSETS,
        small_cell_count=4,
        irs_per_cell=n_panels,
        eavesdroppers_per_cell=1,
        ue_count=40,
        distribution_case=DistributionCase.CLUSTERED,
        cluster_size=10,
        cluster_spread=spread,
        detection_radius=detection_radius,
    )
    envs, rngs = [], []
    for k in range(len(ids)):
        rng = np.random.default_rng([seed, k])
        topo = build_network(topology, rng)
        if tie and k == 0:
            topo.ue_xy[0] = topo.cell_xy[0]
        envs.append(ChannelEnvironment(topo, ChannelParams(), 1.0, detection_radius))
        rngs.append(rng)
    layout = engine._Layout(envs, stream)
    lanes = ChannelLanes(envs, rngs, layout)
    _draw(lanes)
    if tie:
        env, n_bs = envs[0], envs[0].blocks[0]
        first = range(env.offsets[0], env.offsets[1])
        budget = env.links(np.arange(len(env.arms)))[1]
        pair = next(
            ((a, b) for a in first for b in first if a < b and budget[a] == budget[b]),
            None,
        )
        event(f"tie made: {pair is not None}")
        for s in pair or ():
            lanes.gains[env.arms[s]] = 1e3
            lanes.gains[n_bs + s] = 1e3
    streams = engine._Layout(envs)
    want = policy.segment_argmax(lanes.rssi(), policy.Segments(streams.offsets))
    agents = Agents(layout.offsets, layout.arms, [PolicyConfig()] * len(stream), layout.agents)
    best = lanes.strongest(agents)
    rows = streams.agents
    for l, s in enumerate(stream):
        got = best[layout.agents[l] : layout.agents[l + 1]] - layout.slots[l]
        _assert_same_bits(got, want[rows[s] : rows[s + 1]] - streams.slots[s])


def test_lanes_on_one_stream_hold_its_slot_state_once():
    """k lanes on one stream hold each slot's chunk panel and SNR factor at
    the stream's slot count: a lone stream's own arms, uncopied; two
    streams' slots end to end, however many lanes read them. The SNR
    factors are made on their first read, not before. No lane or
    environment holds a per-slot budget."""
    envs, rngs = _stream_envs(2)
    k = 4
    lanes = ChannelLanes(envs[:1], rngs[:1], engine._Layout(envs[:1], [0] * k))
    assert len(lanes.offsets) == k * envs[0].n_agents + 1
    assert len(lanes.arms) == k * len(envs[0].arms)
    assert lanes._panel is envs[0].arms
    assert lanes._snr is None
    lanes.links(np.arange(1))
    assert len(lanes._snr) == len(envs[0].arms)
    both = ChannelLanes(envs, rngs, engine._Layout(envs, [0, 1] * k))
    assert both._snr is None
    both.links(np.arange(1))
    n = sum(len(env.arms) for env in envs)
    assert [len(a) for a in (both._panel, both._snr)] == [n] * 2
    for holder in (lanes, both, *envs):
        assert not hasattr(holder, "_budget_db")
    alone = ChannelLanes(envs, rngs)  # every lane its own stream: no shift at all
    assert alone._shift is None and both._shift is not None


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(list(PolicyKind)),
    omega=st.sampled_from([0.0, 0.1, 1.0]),
    phi=st.sampled_from([1, 2, 4]),
    case=st.sampled_from(list(DistributionCase)),
    n_ues=st.sampled_from([1, 4, 10]),
    n_panels=st.integers(min_value=2, max_value=8),
    n_eves=st.integers(min_value=0, max_value=2),
    detection_radius=st.sampled_from([None, 22.0, 30.0, 45.0]),
    threshold=st.sampled_from([0.5, 1.0, 2.5]),
)
def test_engine_matches_reference_chain_bit_for_bit(
    seed, kind, omega, phi, case, n_ues, n_panels, n_eves, detection_radius, threshold,
):
    """The batched period loop reproduces the per-agent scalar chain exactly.

    Detection radii of 22-45 m around 20 m rings leave many UEs a partial
    ring, and the rest the full-ring fallback.
    """
    cfg = SimulationConfig(
        topology=TopologyConfig(
            irs_per_cell=n_panels,
            eavesdroppers_per_cell=n_eves,
            ue_count=n_ues,
            distribution_case=case,
            cluster_size=1,
            cluster_spread=15.0,
            detection_radius=detection_radius,
        ),
        policy=PolicyConfig(kind=kind, omega=omega, phi=phi),
        rate_threshold=threshold,
        periods=12,
        replications=1,
    )
    want = reference_model.channel_replication(cfg, seed)
    got = run_replication(cfg, seed)
    _assert_same_bits(got.chosen, want.chosen)
    _assert_same_bits(got.satisfied, want.satisfied)
    _assert_same_bits(got.rates, want.rates)
    for t in range(cfg.periods):
        assert got.mean_secrecy[t].hex() == float(want.secrecy[t].mean()).hex()
    for record, agent in zip(got.agents, want.agents, strict=True):
        _assert_same_bits(record.rewards, agent.rewards)
        assert record.candidate_irs == agent.candidate_irs
        assert record.current_irs == agent.current_irs
        assert record.consecutive_unsatisfied == agent.consecutive_unsatisfied

    # per-UE secrecy, period by period, through the engine's period protocol
    rng = np.random.default_rng(seed)
    topo = build_network(cfg.topology, rng)
    env = ChannelEnvironment(topo, cfg.channel, threshold, detection_radius)
    lanes = ChannelLanes([env], [rng])
    agents = Agents(env.offsets, env.arms, [cfg.policy])
    for t in range(cfg.periods):
        inputs = lanes.draw(agents)
        if t == 0:
            slot = init_association(agents, lanes.strongest(agents), inputs)
        else:
            slot = select_irs(agents, inputs)
        _, satisfied, secrecy = lanes.outcomes(slot)
        update(agents, satisfied)
        _assert_same_bits(secrecy, want.secrecy[t])
        _assert_same_bits(env.arms[slot], want.chosen[t])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    kind=st.sampled_from(list(PolicyKind)),
    omega=st.sampled_from([0.0, 0.1, 1.0]),
    phi=st.sampled_from([1, 2, 4]),
    n_agents=st.sampled_from([1, 3, 8]),
)
def test_bernoulli_engine_matches_reference_chains(
    seed, probs, kind, omega, phi, n_agents
):
    """Bernoulli runs match the scalar chain, with a secrecy of +0.0 in every
    period; one bandit agent matches the oracle script."""
    cfg = SimulationConfig(
        policy=PolicyConfig(kind=kind, omega=omega, phi=phi), periods=40, replications=1
    )
    got = run_replication(cfg, seed, environment=BernoulliEnvironment(probs, n_agents))
    want = reference_model.bernoulli_replication(cfg, seed, probs, n_agents)
    _assert_same_bits(got.mean_secrecy, np.zeros(cfg.periods))
    _assert_same_bits(got.chosen, want.chosen)
    _assert_same_bits(got.satisfied, want.satisfied)
    _assert_same_bits(got.rates, want.rates)
    for record, agent in zip(got.agents, want.agents, strict=True):
        _assert_same_bits(record.rewards, agent.rewards)
    if n_agents == 1 and kind is CB:
        chain = two_armed_oracle.run_chain(seed, probs, omega, phi, cfg.periods)
        _assert_same_bits(got.chosen[:, 0], chain)


def _slot_count(topo, detection_radius) -> int:
    """How many (UE, candidate panel) slots the reference model gives topo."""
    return sum(
        len(reference_model.candidate_irs_distances(u, topo, detection_radius)[0])
        for u in range(len(topo.ue_xy))
    )


def _record_generators(monkeypatch) -> list:
    """Keep every Generator the engine makes from now on, in order, in the returned list."""
    made, make = [], np.random.default_rng

    def recording(s):
        made.append(make(s))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


@pytest.mark.parametrize("kind", list(PolicyKind))
@pytest.mark.parametrize("seed", [0, 77, 2**32 - 1])
def test_lane_stream_is_geometry_then_fixed_blocks(monkeypatch, kind, seed):
    """A lane's Generator ends where geometry, then T x (environment block +
    U x 2 policy uniforms), drawn directly, leave a fresh one, whatever the
    policy did: a channel lane's block is I + S + I*E gains, S its UEs'
    candidate panels counted by the reference model. The Bernoulli lane
    draws two periods per call, so its ninth period is a block of its own."""
    monkeypatch.setattr(engine, "BLOCK_FLOATS", 2 * 3 * 5)
    cfg = small_cfg(
        topology=TopologyConfig(eavesdroppers_per_cell=3, detection_radius=25.0),
        policy=PolicyConfig(kind=kind, omega=0.5, phi=1),
        periods=9,
    )
    twin = np.random.default_rng(seed)
    topo = build_network(cfg.topology, twin)
    n_panels, n_ues, n_eves = len(topo.panel_xy), len(topo.ue_xy), len(topo.eve_xy)
    n_slots = _slot_count(topo, cfg.topology.detection_radius)
    probs = (0.9, 0.2, 0.5)
    bernoulli_twin = np.random.default_rng(seed)
    for _ in range(cfg.periods):
        twin.standard_exponential(n_panels + n_slots + n_panels * n_eves)
        twin.random((n_ues, 2))
        bernoulli_twin.random(5)
        bernoulli_twin.random((5, 2))
    made = _record_generators(monkeypatch)
    run_replication(cfg, seed)
    run_replication(cfg, seed, BernoulliEnvironment(probs, n_agents=5))
    assert made[0].bit_generator.state == twin.bit_generator.state
    assert made[1].bit_generator.state == bernoulli_twin.bit_generator.state


def _bernoulli_block_lanes(periods: int) -> list[Lane]:
    """Bernoulli lanes of 5, 5, 5, 3 and 5 agents on three streams: the first
    three lanes share one (two bandit lanes of different omega and a greedy
    lane on one seed and environment), so the chunk holds one run of three
    lanes and two lone lanes."""
    cfg = small_cfg(policy=PolicyConfig(kind=CB, omega=0.4, phi=1), periods=periods)
    greedy = dataclasses.replace(cfg, policy=PolicyConfig(kind=PolicyKind.GREEDY))
    eager = dataclasses.replace(cfg, policy=PolicyConfig(kind=CB, omega=0.9, phi=2))
    five = BernoulliEnvironment((0.9, 0.2, 0.5), n_agents=5)
    three = BernoulliEnvironment((0.3, 0.6), n_agents=3)
    return [
        Lane(cfg, 4, five),
        Lane(greedy, 4, five),
        Lane(eager, 4, five),
        Lane(cfg, 5, three),
        Lane(cfg, 6, five),
    ]


# the lanes' streams hold 5 + 3 + 5 agents, so a period draws 39 floats
@pytest.mark.parametrize("block_floats", [1, 3 * 39, math.inf], ids=["k=1", "k=3", "k=T"])
@pytest.mark.parametrize("periods", [1, 2, 3, 4, 7])  # 1, k - 1, k, k + 1, 2k + 1 at k = 3
def test_bernoulli_blocks_keep_every_lane_and_stream(monkeypatch, block_floats, periods):
    """Drawn k periods per call, a chunk of Bernoulli streams of different U,
    three lanes on one of them, gives every lane its one-lane run bit for bit,
    with and without a record, and leaves every stream's Generator where T
    periods of U outcome and U x 2 policy uniforms leave it."""
    lanes = _bernoulli_block_lanes(periods)
    alone = [run_replication(*lane) for lane in lanes]
    monkeypatch.setattr(engine, "BLOCK_FLOATS", block_floats)
    assert len(list(engine._chunks(lanes))) == 1
    made = _record_generators(monkeypatch)
    got = run_lanes(lanes, record=True)
    series = run_lanes(lanes)
    twins = []
    for seed, n in [(4, 5), (5, 3), (6, 5)]:
        twins.append(np.random.default_rng(seed))
        for _ in range(periods):
            twins[-1].random(n)
            twins[-1].random((n, 2))
    for rng, twin in zip(made[:3], twins, strict=True):
        assert rng.bit_generator.state == twin.bit_generator.state
    for want, res, light in zip(alone, got, series, strict=True):
        for name in ("chosen", "satisfied", "rates", "satisfaction", "mean_secrecy"):
            _assert_same_bits(getattr(res, name), getattr(want, name))
        _assert_same_bits(light.satisfaction, want.satisfaction)
        for record, agent in zip(res.agents, want.agents, strict=True):
            _assert_same_bits(record.rewards, agent.rewards)


@pytest.mark.parametrize("block_floats", [1, 3 * 39, math.inf], ids=["k=1", "k=3", "k=T"])
@pytest.mark.parametrize("periods", [1, 2, 3, 4, 7])  # 1, k - 1, k, k + 1, 2k + 1 at k = 3
def test_bernoulli_decision_inputs_are_each_periods_own(monkeypatch, block_floats, periods):
    """Whatever the block size, a Bernoulli chunk's draw(agents) hands out,
    period by period, the decision inputs of that period's policy rows alone:
    twin Generators drawing period by period give them, the rows gathered
    to the lane agents (three lanes of different omega on one stream)."""
    lanes = _bernoulli_block_lanes(periods)
    monkeypatch.setattr(engine, "BLOCK_FLOATS", block_floats)
    streams, stream = engine._streams(lanes)
    envs = [lane.environment for lane in streams]
    layout = engine._Layout(envs, stream)
    rngs = [np.random.default_rng(lane.seed) for lane in streams]
    batch = engine.BernoulliLanes(envs, rngs, periods, layout)
    agents = Agents(layout.offsets, layout.arms, [lane.cfg.policy for lane in lanes], layout.agents)
    twins = [np.random.default_rng(lane.seed) for lane in streams]
    for _ in range(periods):
        rows = []
        for twin, env in zip(twins, envs):
            twin.random(env.n_agents)
            rows.append(twin.random((env.n_agents, 2)))
        want = decision_inputs(agents, np.concatenate(rows)[layout.rows])
        for got, part in zip(batch.draw(agents), want, strict=True):
            _assert_same_bits(got, part)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_ues=st.integers(min_value=1, max_value=12),
    n_panels=st.integers(min_value=2, max_value=10),
    n_eves=st.integers(min_value=0, max_value=3),
    case=st.sampled_from(list(DistributionCase)),
    detection_radius=st.one_of(st.none(), st.floats(min_value=1.0, max_value=60.0)),
    periods=st.integers(min_value=1, max_value=4),
)
def test_channel_stream_draws_one_gain_per_slot(
    seed, n_ues, n_panels, n_eves, case, detection_radius, periods
):
    """A channel stream's fading block is (I, S, I*E), S its slot count:
    its Generator ends where a twin's does that drew the geometry, then per
    period I + S + I*E exponentials and 2U uniforms; and its lane's
    _period_floats, read from the config, bounds that period's draws."""
    topology = TopologyConfig(
        irs_per_cell=n_panels,
        eavesdroppers_per_cell=n_eves,
        ue_count=n_ues,
        distribution_case=case,
        cluster_size=1,
        detection_radius=detection_radius,
    )
    cfg = small_cfg(topology=topology, periods=periods, replications=1)
    twin = np.random.default_rng(seed)
    topo = build_network(topology, twin)
    env = ChannelEnvironment(topo, cfg.channel, cfg.rate_threshold, detection_radius)
    n_panels, n_eves = len(topo.panel_xy), len(topo.eve_xy)
    assert env.blocks == (n_panels, len(env.arms), n_panels * n_eves)
    assert len(env.arms) == _slot_count(topo, detection_radius)
    for _ in range(periods):
        twin.standard_exponential(sum(env.blocks))
        twin.random((n_ues, 2))
    made, make = [], np.random.default_rng

    def recording(s):
        made.append(make(s))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        run_replication(cfg, seed)
    assert made[0].bit_generator.state == twin.bit_generator.state
    assert engine._period_floats(Lane(cfg, seed)) >= sum(env.blocks) + 2 * n_ues


def test_every_policy_reads_the_same_fading(monkeypatch):
    """Lanes on one seed that differ only in policy form one stream: one
    Generator draws one fading block and one policy block per period for
    all of them, and each lane's results are bit for bit its one-lane run's."""
    cfg = small_cfg(periods=25)
    policies = [
        PolicyConfig(kind=CB, omega=0.1, phi=2),
        PolicyConfig(kind=PolicyKind.GREEDY),
        PolicyConfig(kind=CB, omega=1.0, phi=1),
    ]
    lanes = [Lane(dataclasses.replace(cfg, policy=p), 31) for p in policies]
    assert len(list(engine._chunks(lanes))) == 1
    made = _record_generators(monkeypatch)
    alone = [run_replication(*lane) for lane in lanes]
    seen = []
    draw = ChannelLanes.draw

    def spy(self, agents):
        inputs = draw(self, agents)
        seen.append(self.gains.copy())
        return inputs

    monkeypatch.setattr(ChannelLanes, "draw", spy)
    results = run_lanes(lanes, record=True)
    assert len(made) == len(lanes) + 1
    # the chunk's one Generator ends where a lane's own run leaves it
    assert made[-1].bit_generator.state == made[0].bit_generator.state
    topo = build_network(cfg.topology, np.random.default_rng(31))
    n_slots = _slot_count(topo, cfg.topology.detection_radius)
    block = sum(channel.fading_blocks(len(topo.panel_xy), n_slots, len(topo.eve_xy)))
    assert [len(gains) for gains in seen] == [block] * cfg.periods
    for res, want in zip(results, alone, strict=True):
        for name in ("chosen", "satisfied", "rates", "satisfaction", "mean_secrecy"):
            _assert_same_bits(getattr(res, name), getattr(want, name))
    chosen = [res.chosen for res in results]
    assert not np.array_equal(chosen[0], chosen[1]) and not np.array_equal(chosen[0], chosen[2])


def test_one_generator_per_stream(monkeypatch):
    """A chunk makes one Generator per distinct stream. Lanes on one seed
    share it only when their topology, channel and rate threshold (or their
    environment object) are equal; a different case, detection radius,
    channel or threshold makes a stream of its own, and a different channel
    or threshold a chunk of its own too. Each variant's greedy twin follows it."""
    cfg = small_cfg(periods=3)
    greedy = PolicyConfig(kind=PolicyKind.GREEDY)
    clustered = dataclasses.replace(cfg.topology, distribution_case=DistributionCase.CLUSTERED)
    variants = [
        cfg,
        dataclasses.replace(cfg, topology=clustered),
        dataclasses.replace(cfg, topology=TopologyConfig(detection_radius=30.0)),
        dataclasses.replace(cfg, channel=ChannelParams(pathloss_exponent=2.5)),
        dataclasses.replace(cfg, rate_threshold=2.0),
    ]
    lanes = [Lane(w, 9) for v in variants for w in (v, dataclasses.replace(v, policy=greedy))]
    lanes.insert(6, Lane(cfg, 10))  # after the default channel's variants
    env = BernoulliEnvironment((0.2, 0.7), n_agents=3)
    bernoulli = [Lane(cfg, 9, env), Lane(dataclasses.replace(cfg, policy=greedy), 9, env)]
    bernoulli += [Lane(cfg, 10, env)]
    assert [len(chunk) for chunk in engine._chunks(lanes + bernoulli)] == [7, 2, 2, 3]
    made = _record_generators(monkeypatch)
    got = run_lanes(lanes + bernoulli)
    assert len(made) == 6 + 2
    for lane, res in zip(lanes + bernoulli, got, strict=True):
        _assert_same_bits(res.satisfaction, run_replication(*lane).satisfaction)


channel_lanes = st.builds(
    lambda seed, kind, case, radius, eves, n_ues, n_panels, channel, threshold: Lane(
        SimulationConfig(
            topology=TopologyConfig(
                irs_per_cell=n_panels,
                eavesdroppers_per_cell=eves,
                ue_count=n_ues,
                distribution_case=case,
                cluster_size=1,
                detection_radius=radius,
            ),
            channel=channel,
            policy=PolicyConfig(kind=kind, omega=0.3, phi=2),
            periods=LANE_PERIODS,
            replications=1,
            rate_threshold=threshold,
        ),
        seed,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(list(PolicyKind)),
    case=st.sampled_from(list(DistributionCase)),
    radius=st.sampled_from([None, 25.0]),
    eves=st.integers(min_value=0, max_value=2),
    n_ues=st.sampled_from([1, 3, 8]),
    n_panels=st.sampled_from([2, 5]),
    channel=st.sampled_from([ChannelParams(), ChannelParams(pathloss_exponent=2.5)]),
    threshold=st.sampled_from([1.0, 2.0]),
)
bernoulli_lanes = st.builds(
    lambda seed, kind, probs, n_agents: Lane(
        SimulationConfig(
            policy=PolicyConfig(kind=kind, omega=0.3, phi=1),
            periods=LANE_PERIODS,
            replications=1,
        ),
        seed,
        BernoulliEnvironment(probs, n_agents),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(list(PolicyKind)),
    probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
    n_agents=st.sampled_from([1, 2, 5]),
)
LANE_PERIODS = 8


def _assert_chunked_runs_match_one_lane_runs(chunk_floats, lanes):
    alone = [run_replication(*lane) for lane in lanes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_FLOATS", chunk_floats)
        chunks = list(engine._chunks(lanes))
        got = run_lanes(lanes, record=True)
        series = run_lanes(lanes)
    keys = [engine._chunk_key(lane) for lane in lanes]
    if chunk_floats == math.inf:
        assert len(chunks) == 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert [lane for chunk in chunks for lane in chunk] == lanes
    for want, res, light in zip(alone, got, series, strict=True):
        _assert_same_bits(res.chosen, want.chosen)
        _assert_same_bits(res.satisfied, want.satisfied)
        _assert_same_bits(res.rates, want.rates)
        for r in (res, light):
            _assert_same_bits(r.satisfaction, want.satisfaction)
            _assert_same_bits(r.mean_secrecy, want.mean_secrecy)
        assert light.chosen is None and light.agents is None
        assert len(res.agents) == len(want.agents)
        for record, agent in zip(res.agents, want.agents, strict=True):
            _assert_same_bits(record.rewards, agent.rewards)
            assert record.candidate_irs == agent.candidate_irs
            assert record.current_irs == agent.current_irs
            assert record.consecutive_unsatisfied == agent.consecutive_unsatisfied


def _two_streams_one_shared() -> list[Lane]:
    """Two streams of unequal slot counts in one chunk; the first is shared by
    a bandit and a greedy lane with the second's lane between them."""
    small = SimulationConfig(
        topology=TopologyConfig(ue_count=3), periods=LANE_PERIODS, replications=1
    )
    large = dataclasses.replace(small, topology=TopologyConfig(ue_count=8, irs_per_cell=5))
    greedy = dataclasses.replace(small, policy=PolicyConfig(kind=PolicyKind.GREEDY))
    return [Lane(small, 5), Lane(large, 6), Lane(greedy, 5)]


def _one_seed_on_two_thresholds() -> list[Lane]:
    """Adjacent lanes on one seed and network that differ only in rate threshold."""
    cfg = SimulationConfig(
        topology=TopologyConfig(ue_count=3), periods=LANE_PERIODS, replications=1
    )
    return [Lane(cfg, 5), Lane(dataclasses.replace(cfg, rate_threshold=2.0), 5)]


@pytest.mark.parametrize("chunk_floats", [1, 3, math.inf])
@settings(max_examples=25, deadline=None)
@given(lanes=st.lists(st.one_of(channel_lanes, bernoulli_lanes), min_size=1, max_size=6))
@example(lanes=_one_seed_on_two_thresholds())
@example(lanes=_two_streams_one_shared())
def test_lanes_in_chunks_match_one_lane_runs(chunk_floats, lanes):
    """Every lane of a chunk gives, bit for bit, what it gives run alone.

    Lanes mix policies, placements, detection radii, eavesdropper counts,
    sizes, channels and rate thresholds; Bernoulli lanes join the list and
    chunk with each other. Unbounded chunks put every run of lanes of one
    _chunk_key in one chunk; a bound of 1 or 3 floats runs every channel
    lane alone. The explicit examples run two lanes on one seed side by side
    that differ only in threshold: two streams, never one run of lanes; and
    two streams of unequal slot counts, one read by two lanes apart, whose
    warm start and outcomes address each stream's IRS->UE gains.
    """
    _assert_chunked_runs_match_one_lane_runs(chunk_floats, lanes)


OTHER_POLICIES = [
    PolicyConfig(kind=PolicyKind.GREEDY),
    PolicyConfig(kind=CB, omega=0.0, phi=1),
    PolicyConfig(kind=CB, omega=1.0, phi=4),
    PolicyConfig(kind=CB, omega=0.3, phi=2),
]


@st.composite
def sharing_lanes(draw):
    """Lanes on seeds from a small pool, each cloned under one to three other
    policies (a Bernoulli clone keeps its environment object), shuffled."""
    lanes = []
    for lane in draw(st.lists(st.one_of(channel_lanes, bernoulli_lanes), min_size=1, max_size=3)):
        lane = lane._replace(seed=draw(st.sampled_from([3, 4])))
        clones = draw(st.lists(st.sampled_from(OTHER_POLICIES), min_size=1, max_size=3))
        lanes.append(lane)
        lanes += [lane._replace(cfg=dataclasses.replace(lane.cfg, policy=p)) for p in clones]
    return draw(st.permutations(lanes))


@pytest.mark.parametrize("chunk_floats", [200, math.inf])
@settings(max_examples=25, deadline=None)
@given(lanes=sharing_lanes())
def test_lanes_sharing_streams_match_one_lane_runs(chunk_floats, lanes):
    """Lanes that share a stream in a chunk still give, bit for bit, what
    each gives run alone; unbounded chunks hold every run of same-kind lanes."""
    keys = [engine._stream_key(lane) for lane in lanes]
    assert len(set(keys)) < len(keys)
    _assert_chunked_runs_match_one_lane_runs(chunk_floats, lanes)


TOPOLOGY_FIELDS = {f.name for f in dataclasses.fields(TopologyConfig)}


def _named_field(exc: ValueError) -> str:
    """The field a config error names: its message starts with "field: "."""
    field = str(exc).split(":", 1)[0]
    assert field in TOPOLOGY_FIELDS, str(exc)
    return field


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid_side", 0.0),
        ("grid_side", math.nan),
        ("small_cell_count", 0),
        ("small_cell_count", 3),
        ("small_cell_offsets", ((math.inf, 0.0), (50.0, 0.0))),
        ("irs_per_cell", 1),
        ("irs_radius", -3.0),
        ("eavesdroppers_per_cell", -1),
        ("eve_radius", 20.0),
        ("eve_radius", math.inf),
        ("ue_count", 0),
        ("cluster_size", 0),
        ("cluster_spread", -1.0),
        ("detection_radius", 0.0),
        ("detection_radius", math.nan),
    ],
)
def test_rejected_topology_names_its_field(key, value):
    with pytest.raises(ValueError) as info:
        TopologyConfig(**{key: value})
    _named_field(info.value)
    assert key in str(info.value)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    grid_side=st.floats(min_value=60.0, max_value=300.0),
    cell_fractions=st.lists(
        st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), min_size=1, max_size=3
    ),
    irs_per_cell=st.integers(min_value=2, max_value=6),
    irs_radius=st.floats(min_value=1.0, max_value=40.0),
    n_eves=st.integers(min_value=0, max_value=3),
    ue_count=st.integers(min_value=1, max_value=12),
    case=st.sampled_from(list(DistributionCase)),
    cluster_size=st.integers(min_value=1, max_value=4),
    cluster_spread=st.floats(min_value=0.0, max_value=40.0),
    detection_radius=st.one_of(st.none(), st.floats(min_value=1.0, max_value=80.0)),
)
def test_accepted_topologies_give_finite_budgets_and_a_period_in_unit_range(
    seed, grid_side, cell_fractions, irs_per_cell, irs_radius, n_eves,
    ue_count, case, cluster_size, cluster_spread, detection_radius,
):
    """Every topology the config accepts can run.

    Its environment's budgets are finite and one period's satisfaction
    lies in [0, 1]. A config that is rejected (a ring that leaves the
    grid, clusters that do not divide the UEs) names the field.
    """
    try:
        cfg = TopologyConfig(
            grid_side=grid_side,
            small_cell_count=len(cell_fractions),
            small_cell_offsets=tuple(
                (fx * grid_side / 2, fy * grid_side / 2) for fx, fy in cell_fractions
            ),
            irs_per_cell=irs_per_cell,
            irs_radius=irs_radius,
            eavesdroppers_per_cell=n_eves,
            eve_radius=irs_radius + 5.0,
            ue_count=ue_count,
            distribution_case=case,
            cluster_size=cluster_size,
            cluster_spread=cluster_spread,
            detection_radius=detection_radius,
        )
    except ValueError as exc:
        event(f"rejected: {_named_field(exc)}")
        return
    event("accepted")

    topo = build_network(cfg, np.random.default_rng(seed))
    env = ChannelEnvironment(topo, ChannelParams(), 1.0, cfg.detection_radius)
    _, budget, snr = ChannelLanes([env], [None]).links(np.arange(len(env.arms)))
    for values in (budget, snr, env._eve_snr):
        assert np.isfinite(values).all()
    assert env._eve_snr.shape == (len(topo.panel_xy), len(topo.eve_xy))
    sim = SimulationConfig(topology=cfg, periods=1, replications=1)
    res = run_replication(sim, seed)  # builds the same network from the same seed
    assert 0.0 <= res.satisfaction[0] <= 1.0
    assert np.isin(res.chosen[0], env.arms).all()


def _count_math_calls(monkeypatch, names=("hypot", "log10", "pow")):
    """Count every call of the named math functions, by where it is taken:
    "slot" inside engine._links or for the SNR factors of its budgets
    (ChannelLanes.links, and the fill in ChannelLanes.outcomes), "band"
    inside topology.candidate_slots, "ties" inside topology.serving_cells,
    "other" anywhere else."""
    calls = {name: {} for name in names}
    places = {"_links": "slot", "links": "slot", "outcomes": "slot",
              "candidate_slots": "band", "serving_cells": "ties"}

    def place():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code.co_name in places:
                return places[frame.f_code.co_name]
            frame = frame.f_back
        return "other"

    for name in names:
        real = getattr(math, name)

        def counted(*args, _real=real, _name=name):
            where = place()
            calls[_name][where] = calls[_name].get(where, 0) + 1
            return _real(*args)

        monkeypatch.setattr(math, name, counted)
    return calls


def _record_slot_links(monkeypatch):
    """Every slot array engine._links computes exact links of, and the warm
    start's winners and the slots its exact RSSI decided among."""
    seen = {"links": [], "winners": [], "kept": []}
    real_links, real_rssi = engine._links, ChannelLanes.rssi
    real_strongest = ChannelLanes.strongest

    def links(slots, *args):
        seen["links"].append(np.array(slots))
        return real_links(slots, *args)

    def rssi(self, slots=None):
        seen["kept"].append(np.array(slots))
        return real_rssi(self, slots)

    def strongest(self, agents):
        best = real_strongest(self, agents)
        seen["winners"].append(best.copy())
        return best

    monkeypatch.setattr(engine, "_links", links)
    monkeypatch.setattr(ChannelLanes, "rssi", rssi)
    monkeypatch.setattr(ChannelLanes, "strongest", strongest)
    return seen


DENSE_SHORT = SimulationConfig(
    topology=TopologyConfig(
        small_cell_offsets=DENSE_OFFSETS,
        small_cell_count=4,
        irs_per_cell=32,
        eavesdroppers_per_cell=1,
        ue_count=200,
        distribution_case=DistributionCase.CLUSTERED,
        cluster_size=20,
        detection_radius=40.0,
    ),
    periods=2,
    replications=1,
    enforce_channel_budget=False,
)


def _traced(make):
    """The bytes make() left held, with what it made alive, and the most it
    held at once (tracemalloc), read on its second call: the first, untraced,
    makes the one-time allocations of a first call in a process."""
    make()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        made = make()  # held while measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - base, peak - base


# 2000 clustered UEs on 4 cells x 64 panels, a 40 m detection radius
DENSE_2000 = dataclasses.replace(DENSE_SHORT.topology, irs_per_cell=64, ue_count=2000)


@pytest.mark.parametrize("seed", [1, 7919])
def test_candidate_slots_holds_two_grids_at_most(seed):
    """candidate_slots holds at most two (UE, ring panel) grids of 8-byte
    items at once (the squares and the y part being added) and no index
    grid beside them: its peak stays below 2.5 of them on a 2000-UE
    network."""
    topo = build_network(DENSE_2000, np.random.default_rng(seed))
    _, peak = _traced(lambda: engine.candidate_slots(topo, 40.0))
    assert peak <= 2.5 * DENSE_2000.ue_count * DENSE_2000.irs_per_cell * 8


@pytest.mark.parametrize("seed", [1, 7919])
def test_one_stream_lanes_hold_one_slot_array(seed):
    """A one-stream ChannelLanes keeps per stream slot only its period's
    IRS->UE gain, makes its SNR factors on their first read, and makes no
    slot-sized index on the way: on a 2000-UE network it holds, and peaks
    at, under 1.5 arrays of one 8-byte item per slot."""
    topo = build_network(DENSE_2000, np.random.default_rng(seed))
    env = ChannelEnvironment(topo, ChannelParams(), 1.0, 40.0)
    rng = np.random.default_rng(seed)
    held, peak = _traced(lambda: ChannelLanes([env], [rng]))
    bound = 1.5 * len(env.arms) * 8
    assert held <= peak <= bound


@pytest.mark.parametrize("seed", [1, 7919])
def test_screen_peaks_at_two_slot_arrays(seed):
    """The warm start's screen holds the screened budgets and, per block of
    SCREEN_SLOTS slots, its temporaries: on a 2000-UE network it peaks at
    no more than 2 arrays of one 8-byte item per stream slot."""
    topo = build_network(DENSE_2000, np.random.default_rng(seed))
    env = ChannelEnvironment(topo, ChannelParams(), 1.0, 40.0)
    lanes = ChannelLanes([env], [np.random.default_rng(seed)])
    _, peak = _traced(lanes._screened_budgets)
    assert peak <= 2 * len(env.arms) * 8


@pytest.mark.parametrize("seed", [1, 7919])
def test_screen_in_small_blocks_matches_one_block(monkeypatch, seed):
    """Screened in blocks of 7 slots (most UEs hold more, so many blocks are
    one UE), the budgets, their error and strongest's winners are a
    one-block screen's, bit for bit, on two streams read by four lanes."""
    def run(block):
        monkeypatch.setattr(engine, "SCREEN_SLOTS", block)
        envs, rngs = [], []
        for k in range(2):
            rng = np.random.default_rng(seed + k)
            topo = build_network(DENSE_SHORT.topology, rng)
            envs.append(ChannelEnvironment(topo, ChannelParams(), 1.0, 40.0))
            rngs.append(rng)
        layout = engine._Layout(envs, [0, 1, 1, 0])
        lanes = ChannelLanes(envs, rngs, layout)
        agents = Agents(layout.offsets, layout.arms, [PolicyConfig()] * 4, layout.agents)
        _draw(lanes)
        budget, error = lanes._screened_budgets()
        return budget, error, lanes.strongest(agents), lanes._stream_offsets

    budget, error, best, offsets = run(7)
    assert np.diff(offsets).max() > 7 and len(offsets) > 7
    want_budget, want_error, want_best, _ = run(2**40)
    _assert_same_bits(budget, want_budget)
    assert float(error).hex() == float(want_error).hex()
    _assert_same_bits(best, want_best)


@pytest.mark.parametrize("seed", [1, 7919])
def test_bandit_run_computes_slot_links_only_for_its_warm_start(monkeypatch, seed):
    """A 2-period bandit run on a dense geometry (4 cells x 32 panels, 200
    clustered UEs, a 40 m detection radius) takes a slot's exact hop, budget
    and SNR factor only for its warm-start winners (and the slots the exact
    RSSI decided among, if any), each once: period 2 keeps every UE on its
    winner (phi = 2), so no slot is filled. Apart from those, math.hypot,
    log10 and pow run for each panel's feed, each (panel, eavesdropper) pair,
    the budget interval's far hop, the warm start's gain range and the
    radius band alone."""
    topo = build_network(DENSE_SHORT.topology, np.random.default_rng(seed))
    n_panels, n_pairs = len(topo.panel_xy), len(topo.panel_xy) * len(topo.eve_xy)
    n_slots = len(engine.candidate_slots(topo, 40.0)[0])
    seen = _record_slot_links(monkeypatch)
    calls = _count_math_calls(monkeypatch)
    run_lanes([Lane(DENSE_SHORT, seed)])
    computed = np.concatenate(seen["links"])
    assert len(np.unique(computed)) == len(computed)  # none twice
    want = np.union1d(seen["winners"][0], np.concatenate([[], *seen["kept"]]))
    assert np.array_equal(np.sort(computed), want)
    n = len(computed)
    assert n < 1.1 * DENSE_SHORT.topology.ue_count
    assert calls["hypot"].get("slot") == calls["log10"].get("slot") == calls["pow"]["slot"] == n
    # feeds, pairs and the budget interval's far hop; the gain range; rssi(kept)'s gains
    assert calls["hypot"]["other"] == n_panels + n_pairs + 1
    n_kept = sum(len(kept) for kept in seen["kept"])
    assert calls["log10"]["other"] == n_panels + n_pairs + 1 + 2 + n_kept
    assert calls["pow"]["other"] == n_pairs
    assert calls["hypot"].get("band", 0) < 0.01 * n_slots
    assert "band" not in calls["log10"] and "band" not in calls["pow"]
    assert sum(sum(c.values()) for c in calls.values()) < 3000


def test_chunk_with_greedy_lanes_computes_every_slot_once(monkeypatch):
    """A bandit and a greedy lane on one stream: the greedy random start reads
    slots the warm start never computed, so period 1 fills every slot still
    without an exact link, stream by stream; every stream slot is computed
    exactly once, and period 2 computes nothing."""
    greedy = dataclasses.replace(DENSE_SHORT, policy=PolicyConfig(kind=PolicyKind.GREEDY))
    topo = build_network(DENSE_SHORT.topology, np.random.default_rng(3))
    n_slots = len(engine.candidate_slots(topo, 40.0)[0])
    seen = _record_slot_links(monkeypatch)
    calls = _count_math_calls(monkeypatch)
    results = run_lanes([Lane(DENSE_SHORT, 3), Lane(greedy, 3)], record=True)
    computed = np.concatenate(seen["links"])
    assert np.array_equal(np.sort(computed), np.arange(n_slots))
    assert calls["hypot"]["slot"] == calls["log10"]["slot"] == calls["pow"]["slot"] == n_slots
    for lane, res in zip((Lane(DENSE_SHORT, 3), Lane(greedy, 3)), results):
        _assert_same_bits(res.rates, run_replication(*lane).rates)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1e-160, 1.0, 1e155]),
    radius_mode=st.sampled_from(["none", "drawn", "panel_distance", "below_all"]),
    fraction=st.floats(min_value=0.02, max_value=0.5),
    n_eves=st.integers(min_value=0, max_value=2),
    exponent=st.floats(min_value=2.0, max_value=4.0),
    noise_power_db=st.floats(min_value=-30.0, max_value=30.0),
)
def test_on_demand_slot_links_match_reference_bit_for_bit(
    seed, scale, radius_mode, fraction, n_eves, exponent, noise_power_db
):
    """Every slot's exact hop length, budget and SNR factor, taken on demand
    for the slots in any order, equal the scalar formulas of reference_model
    bit for bit: with no radius, a drawn one, one exactly at a panel's
    distance (a slot in the radius band), one below every distance (every
    row the full ring), on layouts at 1e-160 m (squares subnormal), 1 m and
    1e155 m (squares overflow). ChannelEnvironment.links gives the same hop
    lengths and budgets, and the factors stay kept for outcomes."""
    cfg = TopologyConfig(
        grid_side=200 * scale,
        small_cell_offsets=((-50 * scale, 0.0), (50 * scale, 0.0)),
        irs_radius=20 * scale,
        eavesdroppers_per_cell=n_eves,
        eve_radius=25 * scale,
        cluster_spread=35 * scale,
    )
    topo = build_network(cfg, np.random.default_rng(seed))
    full = [reference_model.candidate_irs_distances(u, topo) for u in range(cfg.ue_count)]
    radius = {
        "none": None,
        "drawn": fraction * cfg.grid_side,
        "panel_distance": full[0][1][seed % cfg.irs_per_cell],
        "below_all": min(min(d) for _, d in full) / 2 or None,
    }[radius_mode]
    params = ChannelParams(pathloss_exponent=exponent, noise_power_db=noise_power_db)
    env = ChannelEnvironment(topo, params, 1.0, radius)
    lanes = ChannelLanes([env], [None])
    order = np.random.default_rng(seed).permutation(len(env.arms))
    hop, budget, snr = lanes.links(order)
    env_hop, env_budget = env.links(order)
    _assert_same_bits(env_hop, hop)
    _assert_same_bits(env_budget, budget)
    _assert_same_bits(lanes._snr[order], snr)
    if radius_mode == "below_all" and radius is not None:
        assert (np.diff(env.offsets) == cfg.irs_per_cell).all()
    at = np.empty(len(order), dtype=np.int64)
    at[order] = np.arange(len(order))
    for u, ue in enumerate(topo.ue_xy.tolist()):
        arms, distances = reference_model.candidate_irs_distances(u, topo, radius)
        slots = range(env.offsets[u], env.offsets[u + 1])
        assert env.arms[slots.start : slots.stop].tolist() == arms
        for s, i, d in zip(slots, arms, distances):
            bs = topo.cell_xy[topo.panel_cell[i]].tolist()
            feed = reference_model.feed_db(reference_model.distance(bs, topo.panel_xy[i].tolist()), params)
            want = reference_model.budget_db(feed, d, params)
            assert hop[at[s]].hex() == d.hex()
            assert budget[at[s]].hex() == want.hex()
            assert snr[at[s]].hex() == reference_model.snr_factor(want, params).hex()


def test_equal_eavesdropper_power_leaks_nothing_and_takes_no_log2(monkeypatch):
    """An agent whose 1 + SNR equals exactly that of its panel's strongest
    eavesdropper (the UE stands on the eavesdropper, and both hops' gains
    are equal) has secrecy 0, and outcomes without rates takes no math.log2
    for it: only 1 + SNR above the eavesdropper's leaks."""
    topo = build_network(
        TopologyConfig(ue_count=1, eavesdroppers_per_cell=1), np.random.default_rng(4)
    )
    topo = dataclasses.replace(topo, ue_xy=topo.eve_xy[:1].copy())
    env = ChannelEnvironment(topo, ChannelParams(), 1.0)
    lanes = ChannelLanes([env], [np.random.default_rng(4)])
    _draw(lanes)
    n_bs, n_ue, _ = env.blocks
    slot = np.array([0])
    panel = env.arms[0]
    assert lanes.links(slot)[2][0] == env._eve_snr[panel, 0]  # the same link, the same bits
    lanes.gains[n_bs] = 0.75  # IRS->UE of slot 0
    eve_gains = lanes.gains[n_bs + n_ue :].reshape(n_bs, -1)
    eve_gains[panel] = 1e-300  # every other eavesdropper far weaker
    eve_gains[panel, 0] = 0.75  # IRS->eve 0, equal to the UE's gain
    logs = []
    real_log2 = math.log2
    monkeypatch.setattr(math, "log2", lambda x: logs.append(x) or real_log2(x))
    _, _, secrecy = lanes.outcomes(slot, rates=False)
    assert secrecy.tolist() == [0.0]
    assert logs == []
    rate, _, secrecy = lanes.outcomes(slot)
    assert secrecy.tolist() == [0.0] and len(logs) == 1  # the rate's log2 alone


@pytest.mark.parametrize("exact_beyond", [True, False], ids=["exact beyond", "exact within"])
@pytest.mark.filterwarnings("error")
def test_budget_bound_is_decided_by_the_exact_budget(exact_beyond):
    """A UE hop whose screened budget and exact budget lie on opposite sides
    of -2**1022 dB is decided by the exact one: rejected as
    channel.ref_loss_db when only the exact budget lies beyond the bound,
    accepted when only the screen does. The UE stands on its panel's x axis,
    so the screened hop length is the exact one, d; the UE walks until
    np.log10(d) lies below (or above) math.log10(d), and the path loss
    exponent scales that last bit across the bound. The feed hop is below
    1 m and every other constant 0, so a budget is -10 n log10(d)."""
    cfg = TopologyConfig(
        grid_side=200.0, small_cell_count=1, small_cell_offsets=((0.0, 0.0),),
        irs_per_cell=2, irs_radius=0.5, eavesdroppers_per_cell=0, ue_count=1,
    )
    topo = build_network(cfg, np.random.default_rng(0))
    px, py = topo.panel_xy[0].tolist()
    ux = px + 7.3
    for _ in range(4096):
        ux = math.nextafter(ux, math.inf)
        d = -(px - ux)  # the hop, |panel x - UE x|, as the environment takes it
        exact, approx = math.log10(d), float(np.log10(np.array([d]))[0])
        if (approx < exact) if exact_beyond else (approx > exact):
            break
    else:
        pytest.fail("np.log10 and math.log10 agree on every hop walked")
    n = 2.0**1022 / 10.0 / max(exact, approx)
    while not 10.0 * n * max(exact, approx) > 2.0**1022 >= 10.0 * n * min(exact, approx):
        n = math.nextafter(n, math.inf)
    topo = dataclasses.replace(topo, ue_xy=np.array([[ux, py]]))
    params = ChannelParams(pathloss_exponent=n, ref_loss_db=0.0, irs_gain_db=0.0, tx_power_db=0.0)
    if exact_beyond:
        with pytest.raises(ValueError, match=r"^channel\.ref_loss_db: "):
            ChannelEnvironment(topo, params, 1.0, detection_radius=d)
    else:
        env = ChannelEnvironment(topo, params, 1.0, detection_radius=d)
        assert env.arms.tolist() == [0]
        hop, budget = env.links(np.array([0]))
        assert hop[0] == d and -(2.0**1022) <= budget[0] < -(2.0**1021)
