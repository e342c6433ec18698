"""Monte-Carlo simulation loop.

One replication owns its topology, agents, and Generator; periods advance
sequentially inside it. Replications are independent (seed base_seed + i)
and aggregate by plain averaging, so their order never matters.

Determinism contract (draw order within a replication, one stream):
  1. topology build (eavesdropper angles), then UE placement;
  2. per period: one block-fading realization (BS->IRS, IRS->UE, IRS->eve),
     drawn in that order and unchanged by the batched loop; then the
     decisions, taken agent by agent in UE order, each consuming only the
     draws its policy needs (see policy module); then one batched link
     evaluation for all agents, which draws nothing.
The abstract plug-in environment has no realization; after the period's
decisions it draws every agent's Bernoulli outcome as one block of
uniforms, one per agent in UE order. With one agent this is the stream of
one outcome draw per decision; with several agents the outcome draws used
to interleave with the decisions, so multi-agent Bernoulli runs changed
when the period loop was batched.

The channel environment computes every link's deterministic budget once per
replication, when it is built after step 1; periods only combine those
budgets with the fading gains. That precompute draws nothing, so the draw
order above is the whole contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel, policy
from .config import DistributionCase, PolicyKind, SimulationConfig
from .topology import (
    NetworkTopology,
    build_network,
    candidate_slots,
    distances,
    elementwise,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class PeriodOutcome:
    """Per-UE results of one association period."""

    chosen_irs: np.ndarray
    rate: np.ndarray
    satisfied: np.ndarray
    secrecy: np.ndarray


@dataclass(frozen=True)
class ReplicationResult:
    """Everything one replication produced.

    satisfaction[t] is the fraction of satisfied UEs at period t; chosen
    and satisfied keep the full per-period, per-UE record so conservation
    and frequency checks can audit the run. agents is the final flat agent
    state; indexing it gives one record per UE.
    """

    satisfaction: np.ndarray
    mean_secrecy: np.ndarray
    chosen: np.ndarray
    satisfied: np.ndarray
    rates: np.ndarray
    agents: policy.Agents
    fading_blocks: int


@dataclass(frozen=True)
class SatisfactionTrace:
    """Per-iteration mean satisfaction aggregated over replications."""

    mean_satisfaction: np.ndarray
    ci95_halfwidth: np.ndarray
    mean_secrecy_rate: np.ndarray
    policy: PolicyKind
    case: DistributionCase
    omega: float
    phi: int
    base_seed: int
    replications: int
    periods: int
    fading_blocks: int
    per_replication: np.ndarray


def mean_satisfaction(outcome: PeriodOutcome) -> float:
    """Satisfied count over total UE count for one period."""
    n = len(outcome.satisfied)
    if n == 0:
        raise ValueError("period has no UEs")
    return float(np.count_nonzero(outcome.satisfied) / n)


class ChannelEnvironment:
    """Geometry plus block fading drive satisfaction (the default).

    Everything but the fading is fixed within a replication, so the
    constructor computes each two-hop budget once, in whole-array passes:
    topology.candidate_slots selects every UE's candidates with their hop
    lengths, and the array functions of the channel module turn the hop
    lengths into budgets in dB and linear pre-fading SNRs, for every (UE,
    candidate panel) slot and every (panel, eavesdropper) pair.
    initial_signal and outcomes then combine those lookups with the period's
    fading gains, gathered for every UE at once. Only exactly rounded
    operations run as numpy ufuncs; hypot, logarithms and powers are taken
    element by element from math (topology.elementwise), so every result
    matches the one-link formulas evaluated in Python floats bit for bit.
    The constructor draws nothing, so the determinism contract is unchanged.

    Slots are the agents' flat layout: UE u's k-th candidate sits at slot
    offsets[u] + k, and arms[s] is the global panel index of slot s.
    """

    fading_blocks_per_period = 1

    def __init__(
        self,
        topo: NetworkTopology,
        params: channel.ChannelParams,
        rate_threshold: float,
        detection_radius: float | None = None,
    ):
        self.topo = topo
        self.params = params
        self.rate_threshold = rate_threshold
        self.n_agents = len(topo.ue_xy)
        self.arms, self.offsets, d_rx = candidate_slots(topo, detection_radius)
        d_feed = distances(topo.cell_xy[topo.panel_cell], topo.panel_xy)
        self._budget_db = channel.budgets_db(d_feed, self.arms, d_rx, params)
        self._snr = channel.snr_factors(self._budget_db, params)
        self._ues = np.arange(self.n_agents)
        d_eve = distances(topo.panel_xy[:, None], topo.eve_xy)
        panels = np.arange(len(topo.panel_xy))[:, None]
        self._eve_snr = channel.snr_factors(
            channel.budgets_db(d_feed, panels, d_eve, params), params
        )

    def candidate_arms(self, u: int) -> tuple[int, ...]:
        return tuple(self.arms[self.offsets[u] : self.offsets[u + 1]].tolist())

    def new_period(self, rng: np.random.Generator) -> channel.ChannelRealization:
        return channel.draw_realization(self.topo, rng)

    def initial_signal(self, real: channel.ChannelRealization) -> np.ndarray:
        """Warm-start context: this period's RSSI through every slot's panel."""
        arms = self.arms
        gain = real.g_irs_ue[arms, np.repeat(self._ues, np.diff(self.offsets))]
        gain *= real.g_bs_irs[arms]
        rssi = elementwise(math.log10, gain)
        rssi *= 10.0
        rssi += self._budget_db
        return rssi

    def outcomes(
        self,
        slot: np.ndarray,
        real: channel.ChannelRealization,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every UE's rate, satisfaction and report-only secrecy on its slot's panel."""
        arm = self.arms[slot]
        g_bs = real.g_bs_irs[arm]
        snr = self._snr[slot] * g_bs * real.g_irs_ue[arm, self._ues]
        rate = elementwise(math.log2, 1.0 + snr)
        # the strongest eavesdropper's rate depends on the panel alone
        eve = 1.0 + self._eve_snr * real.g_bs_irs[:, None] * real.g_irs_eve
        r_eve = elementwise(math.log2, eve).max(axis=1, initial=0.0)
        secrecy = np.maximum(rate - r_eve[arm], 0.0)
        return rate, rate >= self.rate_threshold, secrecy


class BernoulliEnvironment:
    """Abstract plug-in: each arm satisfies with a fixed probability.

    Test hook for validating the policy chain against straight-line
    oracles. There is no geometry, so no signal context exists and the
    warm start degenerates to a uniform random arm; every agent's
    candidates are all arms. A period's outcomes are one block of uniform
    draws, one per agent in agent order, taken after every decision of the
    period. The reported rate is 1.0 or 0.0 and secrecy is always 0.
    """

    fading_blocks_per_period = 0

    def __init__(self, arm_probs, n_agents: int = 1):
        self.arm_probs = tuple(float(p) for p in arm_probs)
        if not self.arm_probs:
            raise ValueError("need at least one arm")
        self.n_agents = n_agents
        n_arms = len(self.arm_probs)
        self.offsets = np.arange(n_agents + 1) * n_arms
        self.arms = np.tile(np.arange(n_arms, dtype=np.int64), n_agents)
        self._probs = np.array(self.arm_probs)

    def candidate_arms(self, u: int) -> list[int]:
        return list(range(len(self.arm_probs)))

    def new_period(self, rng: np.random.Generator):
        return None

    def initial_signal(self, ctx) -> None:
        return None

    def outcomes(
        self, slot: np.ndarray, ctx, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        satisfied = rng.random(len(slot)) < self._probs[self.arms[slot]]
        return satisfied.astype(float), satisfied, np.zeros(len(slot))


def run_period(
    env, agents: policy.Agents, cfg: SimulationConfig, rng: np.random.Generator
) -> PeriodOutcome:
    """Advance every agent by one association period.

    Uninitialized agents associate from this period's signal context;
    initialized ones run a re-association decision. Every agent then
    experiences the period on its chosen panel, in one batched link
    evaluation, and records the outcome.
    """
    ctx = env.new_period(rng)
    if not agents.initialized:
        slot = policy.init_association(agents, cfg.policy, env.initial_signal(ctx), rng)
    else:
        slot = policy.select_irs(agents, cfg.policy, rng)
    rate, satisfied, secrecy = env.outcomes(slot, ctx, rng)
    policy.update(agents, satisfied)
    return PeriodOutcome(env.arms[slot], rate, satisfied, secrecy)


def run_replication(
    cfg: SimulationConfig, seed: int, environment=None
) -> ReplicationResult:
    """One seeded replication: build the scenario, run all periods.

    With environment=None the scenario is the configured network; passing
    an environment (e.g. BernoulliEnvironment) replaces the channel while
    keeping the policy loop identical.
    """
    rng = np.random.default_rng(seed)
    if environment is None:
        topo = build_network(cfg.topology, rng)
        env = ChannelEnvironment(
            topo, cfg.channel, cfg.rate_threshold, cfg.topology.detection_radius
        )
    else:
        env = environment

    agents = policy.Agents(env.offsets, env.arms)
    periods = cfg.periods
    satisfaction = np.empty(periods)
    mean_secrecy = np.empty(periods)
    chosen = np.empty((periods, env.n_agents), dtype=np.int64)
    sat_matrix = np.empty((periods, env.n_agents), dtype=bool)
    rates = np.empty((periods, env.n_agents))
    for t in range(periods):
        out = run_period(env, agents, cfg, rng)
        satisfaction[t] = mean_satisfaction(out)
        mean_secrecy[t] = float(out.secrecy.mean())
        chosen[t] = out.chosen_irs
        sat_matrix[t] = out.satisfied
        rates[t] = out.rate
    return ReplicationResult(
        satisfaction=satisfaction,
        mean_secrecy=mean_secrecy,
        chosen=chosen,
        satisfied=sat_matrix,
        rates=rates,
        agents=agents,
        fading_blocks=periods * env.fading_blocks_per_period,
    )


def run_monte_carlo(cfg: SimulationConfig) -> SatisfactionTrace:
    """Aggregate `replications` independent replications.

    Replication i runs with seed base_seed + i. The trace carries the
    per-iteration mean and a 95% normal-approximation half-width across
    replications (zero when there is a single replication), plus the full
    per-replication matrix for downstream statistics. Each replication's
    agents and per-UE record are released before the next one runs.
    """
    n_rep = cfg.replications
    per_rep = np.empty((n_rep, cfg.periods))
    per_rep_secrecy = np.empty((n_rep, cfg.periods))
    fading_blocks = 0
    for i in range(n_rep):
        res = run_replication(cfg, cfg.base_seed + i)
        per_rep[i] = res.satisfaction
        per_rep_secrecy[i] = res.mean_secrecy
        fading_blocks += res.fading_blocks
        del res
    mean = per_rep.mean(axis=0)
    if n_rep > 1:
        halfwidth = Z95 * per_rep.std(axis=0, ddof=1) / math.sqrt(n_rep)
    else:
        halfwidth = np.zeros_like(mean)
    return SatisfactionTrace(
        mean_satisfaction=mean,
        ci95_halfwidth=halfwidth,
        mean_secrecy_rate=per_rep_secrecy.mean(axis=0),
        policy=cfg.policy.kind,
        case=cfg.topology.distribution_case,
        omega=cfg.policy.omega,
        phi=cfg.policy.phi,
        base_seed=cfg.base_seed,
        replications=n_rep,
        periods=cfg.periods,
        fading_blocks=fading_blocks,
        per_replication=per_rep,
    )
