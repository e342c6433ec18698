"""Scalar reference model of the layout, the link formulas, the candidate
sets, the fading draw, the policy and one replication.

The simulator works on whole arrays: (N, 2) positions, array link budgets,
flat agent state and one fading draw call per lane. This module states the
same rules one point, one link and one UE at a time, in plain Python
floats, as the simulator first implemented them, and draws each period's
fading block by block. Its replication loops draw each period's
environment block and then its policy block of one (u1, u2) row per
agent, and evaluate each agent's decision and link with these formulas,
agent by agent. Tests run them next to the simulator and compare every
output bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from irsbandit.channel import MIN_PATH_DISTANCE_M
from irsbandit.config import ChannelParams, PolicyConfig, PolicyKind, SimulationConfig
from irsbandit.topology import build_network


def distance(a, b) -> float:
    """Distance between two (x, y) points, in meters."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _on_circle(center, radius: float, angle: float):
    return (center[0] + radius * math.cos(angle), center[1] + radius * math.sin(angle))


def scalar_layout(cfg, rng):
    """build_topology's cells, (cell, panel) pairs and eavesdroppers as (x, y) points.

    Point by point and cell-major; each cell draws its eavesdropper angles
    with one rng.uniform call.
    """
    center = cfg.grid_side / 2.0
    cells = [(center + dx, center + dy) for dx, dy in cfg.small_cell_offsets]
    n = cfg.irs_per_cell
    panels = [
        (ci, _on_circle(cell, cfg.irs_radius, 2.0 * math.pi * k / n))
        for ci, cell in enumerate(cells)
        for k in range(n)
    ]
    eves = [
        _on_circle(cell, cfg.eve_radius, angle)
        for cell in cells
        for angle in rng.uniform(0.0, 2.0 * math.pi, size=cfg.eavesdroppers_per_cell)
    ]
    return cells, panels, eves


def path_loss_db(d: float, n: float, ref_loss_db: float) -> float:
    """Log-distance path loss: ref_loss_db + 10 * n * log10(d), d >= 1 m.

    Distances below 1 m are clamped to the reference distance.
    """
    d = max(d, MIN_PATH_DISTANCE_M)
    return ref_loss_db + 10.0 * n * math.log10(d)


def feed_db(d_bs_irs: float, p: ChannelParams) -> float:
    """Budget up to a panel, in dB: tx power plus panel gain minus the BS -> IRS loss.

    It is the same for every receiver behind the panel.
    """
    pl_bs = path_loss_db(d_bs_irs, p.pathloss_exponent, p.ref_loss_db)
    return p.tx_power_db + p.irs_gain_db - pl_bs


def budget_db(feed: float, d_irs_rx: float, p: ChannelParams) -> float:
    """Two-hop budget, in dB: a panel's feed_db minus the IRS -> receiver loss."""
    return feed - path_loss_db(d_irs_rx, p.pathloss_exponent, p.ref_loss_db)


def _cascade_budget_db(bs, irs, receiver, p: ChannelParams) -> float:
    """Deterministic part of the two-hop budget between (x, y) points, in dB."""
    return budget_db(feed_db(distance(bs, irs), p), distance(irs, receiver), p)


def snr_factor(budget: float, p: ChannelParams) -> float:
    """Pre-fading linear SNR of a two-hop budget in dB: 10^((budget - noise)/10).

    cascaded_snr is this factor times the two fading gains.
    """
    return 10.0 ** ((budget - p.noise_power_db) / 10.0)


def cascaded_snr(bs, irs, ue, g_bs_irs: float, g_irs_ue: float, p: ChannelParams) -> float:
    """Linear SNR of the passive two-hop cascade through one panel.

    10^((tx + irs_gain - PL(bs,irs) - PL(irs,ue) - noise)/10) * g1 * g2:
    the fading gains multiply because the panel is passive.
    """
    return snr_factor(_cascade_budget_db(bs, irs, ue, p), p) * g_bs_irs * g_irs_ue


def achievable_rate(snr: float) -> float:
    """Shannon rate at unit bandwidth: log2(1 + snr)."""
    if snr < 0:
        raise ValueError("snr must be non-negative")
    return math.log2(1.0 + snr)


def rssi_db(bs, irs, ue, g_bs_irs: float, g_irs_ue: float, p: ChannelParams) -> float:
    """Received signal strength through one panel, in dB (no noise term)."""
    return _cascade_budget_db(bs, irs, ue, p) + 10.0 * math.log10(g_bs_irs * g_irs_ue)


def secrecy_rate(r_main: float, r_eve: float) -> float:
    """Nonnegative rate margin of the legitimate link over the eavesdropper.

    With several eavesdroppers, pass the largest of their rates: they
    decode independently, so the strongest one bounds the leak.
    """
    if r_main < 0 or r_eve < 0:
        raise ValueError("rates must be non-negative")
    return max(0.0, r_main - r_eve)


def serving_cell(ue, topo) -> int:
    """Index of the small cell nearest the (x, y) point ue; ties go to the lowest index."""
    distances = [distance(ue, cell) for cell in topo.cell_xy.tolist()]
    return distances.index(min(distances))


def candidate_irs_distances(
    u: int, topo, detection_radius: float | None = None
) -> tuple[list[int], list[float]]:
    """UE u's candidate panels, in panel order, with each one's distance to the UE.

    The serving cell's ring, less the panels farther than detection_radius
    when it is set; the full ring when that would leave none.
    """
    ue = topo.ue_xy[u].tolist()
    cell = serving_cell(ue, topo)
    ring = [i for i, ci in enumerate(topo.panel_cell.tolist()) if ci == cell]
    distances = [distance(topo.panel_xy[i].tolist(), ue) for i in ring]
    if detection_radius is not None:
        near = [k for k, d in enumerate(distances) if d <= detection_radius]
        if near:
            return [ring[k] for k in near], [distances[k] for k in near]
    return ring, distances


class Fading(NamedTuple):
    """One period's power gains: g_bs_irs[i], g_irs_ue[i, u] for every
    candidate panel i of UE u, and g_irs_eve[i, e]."""

    g_bs_irs: np.ndarray
    g_irs_ue: dict
    g_irs_eve: np.ndarray


def draw_fading(topo, candidates, rng) -> Fading:
    """One period's block fading, a channel lane's environment block in the
    engine's determinism contract; candidates[u] lists UE u's candidate panels.

    One rng.exponential call of I + S + I*E gains, S the number of (UE,
    candidate panel) pairs: BS->IRS, then one IRS->UE gain per pair, UE by
    UE and each UE's panels in listed order, then IRS->eve; its exact zeros
    are redrawn, in position order, until none is left, and only then is it
    split into the three blocks.
    """
    n_irs, n_eve = len(topo.panel_xy), len(topo.eve_xy)
    pairs = [(i, u) for u, panels in enumerate(candidates) for i in panels]
    g = rng.exponential(size=n_irs + len(pairs) + n_irs * n_eve)
    while not g.all():
        zero = g == 0.0
        g[zero] = rng.exponential(size=int(zero.sum()))
    g_bs_irs, g_irs_ue, g_irs_eve = np.split(g, [n_irs, n_irs + len(pairs)])
    return Fading(g_bs_irs, dict(zip(pairs, g_irs_ue.tolist())), g_irs_eve.reshape(n_irs, n_eve))


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


def _uniform_local(agent: AgentState, u2: float) -> int:
    """The candidate u2 picks uniformly: floor(u2 * n) of n candidates."""
    return math.floor(u2 * len(agent.candidate_irs))


def init_association(agent: AgentState, cfg: PolicyConfig, rssi, u2: float) -> int:
    """Strongest RSSI for the bandit (ties low), else the candidate u2 picks."""
    if agent.initialized:
        raise ValueError("agent is already initialized")
    if cfg.kind is PolicyKind.CONTEXTUAL_BANDIT and rssi is not None:
        local = argmax_lowest(np.asarray(rssi, dtype=float))
    else:
        local = _uniform_local(agent, u2)
    agent.current_irs = agent.candidate_irs[local]
    agent.consecutive_unsatisfied = 0
    agent.initialized = True
    return agent.current_irs


def select_irs(agent: AgentState, cfg: PolicyConfig, u1: float, u2: float) -> int:
    """Stay if sticky; else explore the candidate u2 picks if u1 < omega, or exploit."""
    if not agent.initialized:
        raise ValueError("agent is not initialized")
    if cfg.kind is PolicyKind.GREEDY:
        local = argmax_lowest(agent.rewards)
    else:
        cur = agent.local_index(agent.current_irs)
        on_argmax = agent.rewards[cur] == agent.rewards.max()
        if on_argmax and agent.consecutive_unsatisfied < cfg.phi:
            return agent.current_irs
        if u1 < cfg.omega:
            local = _uniform_local(agent, u2)
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


def _points(topo, u, arm):
    """Serving small cell, panel and UE of UE u's link through panel arm, as (x, y) points."""
    bs = topo.cell_xy[topo.panel_cell[arm]].tolist()
    return bs, topo.panel_xy[arm].tolist(), topo.ue_xy[u].tolist()


def _rssi(topo, params, u, arm, real) -> float:
    """Warm-start RSSI of UE u through panel arm, from the scalar formula."""
    bs, irs, ue = _points(topo, u, arm)
    return rssi_db(
        bs, irs, ue, float(real.g_bs_irs[arm]), float(real.g_irs_ue[arm, u]), params
    )


def _link(topo, params, u, arm, real):
    """Rate and secrecy of UE u through panel arm, from the scalar formulas.

    The strongest eavesdropper's rate is that of the largest eavesdropper SNR.
    """
    bs, irs, ue = _points(topo, u, arm)
    g1 = float(real.g_bs_irs[arm])
    rate = achievable_rate(cascaded_snr(bs, irs, ue, g1, float(real.g_irs_ue[arm, u]), params))
    eve_snr = max(
        (
            cascaded_snr(bs, irs, eve, g1, float(g2), params)
            for eve, g2 in zip(topo.eve_xy.tolist(), real.g_irs_eve[arm])
        ),
        default=0.0,
    )
    return rate, secrecy_rate(rate, achievable_rate(eve_snr))


def channel_replication(cfg: SimulationConfig, seed: int) -> ReferenceRun:
    """One replication of the configured network, one agent at a time."""
    rng = np.random.default_rng(seed)
    topo = build_network(cfg.topology, rng)
    radius = cfg.topology.detection_radius
    agents = [
        AgentState(tuple(candidate_irs_distances(u, topo, radius)[0]))
        for u in range(len(topo.ue_xy))
    ]
    run = _empty_run(cfg.periods, agents)
    for t in range(cfg.periods):
        real = draw_fading(topo, [agent.candidate_irs for agent in agents], rng)
        uniforms = rng.random((len(agents), 2)).tolist()
        for u, (agent, (u1, u2)) in enumerate(zip(agents, uniforms)):
            if agent.initialized:
                arm = select_irs(agent, cfg.policy, u1, u2)
            else:
                rssi = [_rssi(topo, cfg.channel, u, i, real) for i in agent.candidate_irs]
                arm = init_association(agent, cfg.policy, rssi, u2)
            rate, secrecy = _link(topo, cfg.channel, u, arm, real)
            satisfied = rate >= cfg.rate_threshold
            update(agent, satisfied)
            run.chosen[t, u], run.satisfied[t, u] = arm, satisfied
            run.rates[t, u], run.secrecy[t, u] = rate, secrecy
    return run


def bernoulli_replication(
    cfg: SimulationConfig, seed: int, arm_probs, n_agents: int
) -> ReferenceRun:
    """Fixed-probability arms: each period draws one outcome uniform per agent,
    then the policy block; every agent decides, then reads its outcome."""
    rng = np.random.default_rng(seed)
    agents = [AgentState(tuple(range(len(arm_probs)))) for _ in range(n_agents)]
    run = _empty_run(cfg.periods, agents)
    for t in range(cfg.periods):
        draws = rng.random(n_agents).tolist()
        uniforms = rng.random((n_agents, 2)).tolist()
        arms = [
            select_irs(agent, cfg.policy, u1, u2)
            if agent.initialized
            else init_association(agent, cfg.policy, None, u2)
            for agent, (u1, u2) in zip(agents, uniforms)
        ]
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
