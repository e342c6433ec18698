"""Scalar reference model of the candidate sets, the policy and one replication.

The engine selects every UE's candidate panels in one array pass, keeps
every agent's state in flat arrays and applies each rule to all agents at
once. This module states the same rules one UE at a time, in plain Python,
as the simulator first implemented them: the serving cell and candidate
set, the per-agent state, the warm start, the re-association decision and
the reward update. Its replication loops evaluate each agent's link with
the scalar functions of the channel module and draw from the Generator in
agent order. Tests run them next to the engine and compare every output
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from irsbandit import channel
from irsbandit.config import PolicyConfig, PolicyKind, SimulationConfig
from irsbandit.topology import build_network


def serving_cell(ue, topo) -> int:
    """Index of the nearest small cell; ties go to the lowest index."""
    distances = [ue.distance_to(cell) for cell in topo.small_cells]
    return distances.index(min(distances))


def candidate_irs_distances(
    u: int, topo, detection_radius: float | None = None
) -> tuple[list[int], list[float]]:
    """UE u's candidate panels, in panel order, with each one's distance to the UE.

    The serving cell's ring, less the panels farther than detection_radius
    when it is set; the full ring when that would leave none.
    """
    ue = topo.ues[u]
    cell = serving_cell(ue, topo)
    ring = [i for i, (ci, _) in enumerate(topo.irs_panels) if ci == cell]
    distances = [topo.irs_position(i).distance_to(ue) for i in ring]
    if detection_radius is not None:
        near = [k for k, d in enumerate(distances) if d <= detection_radius]
        if near:
            return [ring[k] for k in near], [distances[k] for k in near]
    return ring, distances


def argmax_lowest(values) -> int:
    """Index of the maximum; ties resolve to the lowest index."""
    return int(np.argmax(values))


@dataclass(eq=False)
class AgentState:
    """Bandit memory of one UE.

    current_irs and the reward accumulators are indexed against
    candidate_irs; consecutive_unsatisfied counts periods since the last
    satisfied one and is reset only by a satisfied period.
    """

    candidate_irs: tuple[int, ...]
    rewards: np.ndarray = field(init=False)
    current_irs: int = -1
    consecutive_unsatisfied: int = 0
    initialized: bool = False

    def __post_init__(self):
        if len(self.candidate_irs) == 0:
            raise ValueError("agent needs at least one candidate panel")
        self.rewards = np.zeros(len(self.candidate_irs), dtype=np.int64)

    def local_index(self, irs_index: int) -> int:
        return self.candidate_irs.index(irs_index)


def init_association(agent: AgentState, cfg: PolicyConfig, rssi, rng) -> int:
    """Strongest RSSI for the bandit (ties low), else one uniform integer draw."""
    if agent.initialized:
        raise ValueError("agent is already initialized")
    if cfg.kind is PolicyKind.CONTEXTUAL_BANDIT and rssi is not None:
        local = argmax_lowest(np.asarray(rssi, dtype=float))
    else:
        local = int(rng.integers(len(agent.candidate_irs)))
    agent.current_irs = agent.candidate_irs[local]
    agent.consecutive_unsatisfied = 0
    agent.initialized = True
    return agent.current_irs


def select_irs(agent: AgentState, cfg: PolicyConfig, rng) -> int:
    """Stay if sticky (no draw); else explore with probability omega, or exploit."""
    if not agent.initialized:
        raise ValueError("agent is not initialized")
    n = len(agent.candidate_irs)
    if cfg.kind is PolicyKind.GREEDY:
        local = argmax_lowest(agent.rewards)
    else:
        cur = agent.local_index(agent.current_irs)
        on_argmax = agent.rewards[cur] == agent.rewards.max()
        if on_argmax and agent.consecutive_unsatisfied < cfg.phi:
            return agent.current_irs
        if rng.random() < cfg.omega:
            local = int(rng.integers(n))
        else:
            local = argmax_lowest(agent.rewards)
    agent.current_irs = agent.candidate_irs[local]
    return agent.current_irs


def update(agent: AgentState, satisfied: bool) -> AgentState:
    """Satisfied: reward of the current panel +1, counter reset; else counter +1."""
    if not agent.initialized:
        raise ValueError("agent is not initialized")
    if satisfied:
        agent.rewards[agent.local_index(agent.current_irs)] += 1
        agent.consecutive_unsatisfied = 0
    else:
        agent.consecutive_unsatisfied += 1
    return agent


@dataclass
class ReferenceRun:
    """Per-period, per-UE record of one reference replication."""

    chosen: np.ndarray
    satisfied: np.ndarray
    rates: np.ndarray
    secrecy: np.ndarray
    agents: list


def _rssi(topo, params, u, arm, real) -> float:
    """Warm-start RSSI of UE u through panel arm, from the scalar formula."""
    return channel.rssi_db(
        topo.small_cells[topo.irs_cell(arm)],
        topo.irs_position(arm),
        topo.ues[u],
        float(real.g_bs_irs[arm]),
        float(real.g_irs_ue[arm, u]),
        params,
    )


def _link(topo, params, u, arm, real):
    """Rate and secrecy of UE u through panel arm, from the scalar formulas."""
    bs = topo.small_cells[topo.irs_cell(arm)]
    irs = topo.irs_position(arm)
    g1 = float(real.g_bs_irs[arm])
    rate = channel.achievable_rate(
        channel.cascaded_snr(bs, irs, topo.ues[u], g1, float(real.g_irs_ue[arm, u]), params)
    )
    r_eve = max(
        (
            channel.achievable_rate(
                channel.cascaded_snr(bs, irs, eve, g1, float(real.g_irs_eve[arm, e]), params)
            )
            for e, eve in enumerate(topo.eavesdroppers)
        ),
        default=0.0,
    )
    return rate, channel.secrecy_rate(rate, r_eve)


def channel_replication(cfg: SimulationConfig, seed: int) -> ReferenceRun:
    """One replication of the configured network, one agent at a time."""
    rng = np.random.default_rng(seed)
    topo = build_network(cfg.topology, rng)
    radius = cfg.topology.detection_radius
    agents = [
        AgentState(tuple(candidate_irs_distances(u, topo, radius)[0]))
        for u in range(len(topo.ues))
    ]
    run = _empty_run(cfg.periods, agents)
    for t in range(cfg.periods):
        real = channel.draw_realization(topo, rng)
        for u, agent in enumerate(agents):
            if agent.initialized:
                arm = select_irs(agent, cfg.policy, rng)
            else:
                rssi = [_rssi(topo, cfg.channel, u, i, real) for i in agent.candidate_irs]
                arm = init_association(agent, cfg.policy, rssi, rng)
            rate, secrecy = _link(topo, cfg.channel, u, arm, real)
            satisfied = rate >= cfg.rate_threshold
            update(agent, satisfied)
            run.chosen[t, u], run.satisfied[t, u] = arm, satisfied
            run.rates[t, u], run.secrecy[t, u] = rate, secrecy
    return run


def bernoulli_replication(
    cfg: SimulationConfig, seed: int, arm_probs, n_agents: int
) -> ReferenceRun:
    """Fixed-probability arms: every agent decides, then one block of outcome draws."""
    rng = np.random.default_rng(seed)
    agents = [AgentState(tuple(range(len(arm_probs)))) for _ in range(n_agents)]
    run = _empty_run(cfg.periods, agents)
    for t in range(cfg.periods):
        arms = [
            select_irs(agent, cfg.policy, rng)
            if agent.initialized
            else init_association(agent, cfg.policy, None, rng)
            for agent in agents
        ]
        draws = rng.random(n_agents).tolist()
        for u, (agent, arm, draw) in enumerate(zip(agents, arms, draws)):
            satisfied = draw < arm_probs[arm]
            update(agent, satisfied)
            run.chosen[t, u], run.satisfied[t, u] = arm, satisfied
            run.rates[t, u] = 1.0 if satisfied else 0.0
    return run


def _empty_run(periods: int, agents: list) -> ReferenceRun:
    shape = (periods, len(agents))
    return ReferenceRun(
        chosen=np.empty(shape, dtype=np.int64),
        satisfied=np.empty(shape, dtype=bool),
        rates=np.empty(shape),
        secrecy=np.zeros(shape),
        agents=agents,
    )
