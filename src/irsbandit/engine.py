"""Monte-Carlo simulation loop.

One replication owns its topology, agents, and Generator; periods advance
sequentially inside it. Replications are independent (seed base_seed + i)
and aggregate by plain averaging, so their order never matters.

Determinism contract (draw order within a replication, one stream):
  1. topology build (eavesdropper angles), then UE placement;
  2. per period: one block-fading realization (BS->IRS, IRS->UE, IRS->eve),
     then agents in UE order, each consuming only the draws its policy
     needs (see policy module), then one outcome evaluation per agent.
The abstract plug-in environment replaces step 2's realization with one
Bernoulli outcome draw per evaluated agent.

The channel environment computes every link's deterministic budget once per
replication, when it is built after step 1; periods only combine those
budgets with the fading gains. That precompute draws nothing, so the draw
order above is the whole contract.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import channel, policy
from .config import DistributionCase, PolicyKind, SimulationConfig
from .topology import NetworkTopology, build_network, candidate_irs_distances

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
    and frequency checks can audit the run.
    """

    satisfaction: np.ndarray
    mean_secrecy: np.ndarray
    chosen: np.ndarray
    satisfied: np.ndarray
    rates: np.ndarray
    agents: list
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
    constructor computes each two-hop budget once, with the scalar
    functions of the channel module: in dB for every (UE, candidate panel)
    pair, and as a linear pre-fading SNR for every (panel, eavesdropper)
    pair. initial_signal and evaluate then combine those lookups with the
    period's fading gains, in the order channel.rssi_db and
    channel.cascaded_snr use, so every result matches them bit for bit. The
    constructor draws nothing, so the determinism contract is unchanged.

    The UE budgets are one flat array aligned with the concatenated
    candidate tuples: UE u's k-th candidate sits at _offsets[u] + k. The
    agents share those tuples.
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
        self.n_agents = len(topo.ues)
        feed = [
            channel.feed_db(topo.small_cells[cell].distance_to(irs), params)
            for cell, irs in topo.irs_panels
        ]
        self._candidates = []

        def ue_budgets():  # fills _candidates as it goes: no list of floats
            for u in range(self.n_agents):
                arms, d_rx = candidate_irs_distances(u, topo, detection_radius)
                self._candidates.append(tuple(arms))
                for i, d in zip(arms, d_rx):
                    yield channel.budget_db(feed[i], d, params)

        self._ue_budget_db = np.fromiter(ue_budgets(), dtype=float)
        self._offsets = list(
            itertools.accumulate(map(len, self._candidates), initial=0)
        )
        eves = topo.eavesdroppers
        self._eve_snr = np.fromiter(
            (
                channel.snr_factor(
                    channel.budget_db(feed[i], irs.distance_to(eve), params), params
                )
                for i, (_, irs) in enumerate(topo.irs_panels)
                for eve in eves
            ),
            dtype=float,
            count=len(topo.irs_panels) * len(eves),
        ).reshape(len(topo.irs_panels), len(eves))

    def candidate_arms(self, u: int) -> tuple[int, ...]:
        return self._candidates[u]

    def new_period(self, rng: np.random.Generator) -> channel.ChannelRealization:
        return channel.draw_realization(self.topo, rng)

    def initial_signal(self, u: int, real: channel.ChannelRealization) -> np.ndarray:
        """Warm-start context: this period's RSSI through each candidate."""
        lo = self._offsets[u]
        g_bs, g_ue = real.g_bs_irs, real.g_irs_ue
        return np.array(
            [
                b + 10.0 * math.log10(g_bs.item(i) * g_ue.item(i, u))
                for b, i in zip(
                    self._ue_budget_db[lo : self._offsets[u + 1]].tolist(),
                    self._candidates[u],
                )
            ]
        )

    def evaluate(
        self,
        u: int,
        arm: int,
        real: channel.ChannelRealization,
        rng: np.random.Generator,
    ) -> tuple[float, bool, float]:
        """Rate, satisfaction, and report-only secrecy on the chosen panel."""
        j = self._offsets[u] + self._candidates[u].index(arm)
        g_bs = real.g_bs_irs.item(arm)
        snr = channel.snr_factor(self._ue_budget_db.item(j), self.params)
        rate = math.log2(1.0 + snr * g_bs * real.g_irs_ue.item(arm, u))
        r_eve = 0.0
        eve_snr = self._eve_snr[arm].tolist()
        for snr_e, g_eve in zip(eve_snr, real.g_irs_eve[arm].tolist()):
            r_eve = max(r_eve, math.log2(1.0 + snr_e * g_bs * g_eve))
        return rate, rate >= self.rate_threshold, max(0.0, rate - r_eve)


class BernoulliEnvironment:
    """Abstract plug-in: each arm satisfies with a fixed probability.

    Test hook for validating the policy chain against straight-line
    oracles. There is no geometry, so no signal context exists and the
    warm start degenerates to a uniform random arm; the reported rate is
    1.0 or 0.0 and secrecy is always 0.
    """

    fading_blocks_per_period = 0

    def __init__(self, arm_probs, n_agents: int = 1):
        self.arm_probs = tuple(float(p) for p in arm_probs)
        if not self.arm_probs:
            raise ValueError("need at least one arm")
        self.n_agents = n_agents

    def candidate_arms(self, u: int) -> list[int]:
        return list(range(len(self.arm_probs)))

    def new_period(self, rng: np.random.Generator):
        return None

    def initial_signal(self, u: int, ctx) -> None:
        return None

    def evaluate(
        self, u: int, arm: int, ctx, rng: np.random.Generator
    ) -> tuple[float, bool, float]:
        satisfied = rng.random() < self.arm_probs[arm]
        return (1.0 if satisfied else 0.0), satisfied, 0.0


def run_period(
    env, agents: list, cfg: SimulationConfig, rng: np.random.Generator
) -> PeriodOutcome:
    """Advance every agent by one association period.

    Uninitialized agents associate from this period's signal context;
    initialized ones run a re-association decision. Each then experiences
    the period on its chosen panel and records the outcome.
    """
    ctx = env.new_period(rng)
    n = len(agents)
    chosen = np.empty(n, dtype=np.int64)
    rate = np.empty(n)
    satisfied = np.empty(n, dtype=bool)
    secrecy = np.empty(n)
    for u, agent in enumerate(agents):
        if not agent.initialized:
            arm = policy.init_association(
                agent, cfg.policy, env.initial_signal(u, ctx), rng
            )
        else:
            arm = policy.select_irs(agent, cfg.policy, rng)
        r, s, z = env.evaluate(u, arm, ctx, rng)
        policy.update(agent, s)
        chosen[u], rate[u], satisfied[u], secrecy[u] = arm, r, s, z
    return PeriodOutcome(chosen, rate, satisfied, secrecy)


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

    agents = [  # tuple() returns a tuple argument itself: agents share it
        policy.AgentState(candidate_irs=tuple(env.candidate_arms(u)))
        for u in range(env.n_agents)
    ]
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
    per-replication matrix for downstream statistics.
    """
    results = [
        run_replication(cfg, cfg.base_seed + i) for i in range(cfg.replications)
    ]
    per_rep = np.stack([r.satisfaction for r in results])
    per_rep_secrecy = np.stack([r.mean_secrecy for r in results])
    n_rep = cfg.replications
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
        fading_blocks=sum(r.fading_blocks for r in results),
        per_replication=per_rep,
    )
