"""Association agents of one or more lanes, held as flat arrays.

Two policies over the same state: the bandit policy (RSSI warm start,
epsilon-style exploration with rate omega, stickiness phi) and the greedy
baseline (random start, then always the largest accumulated reward).
Rewards are integer counters of satisfied periods, one per candidate panel.

Every agent's candidates occupy a contiguous run of slots in one flat
layout shared with the environment: agent u owns slots offsets[u] to
offsets[u + 1] - 1, in its candidate order. A lane is one replication: a
contiguous run of agents with one policy config and one Generator. The
rules act on every agent of every lane at once; only the random draws run
agent by agent, lane by lane, each from its lane's Generator in agent
order, so each lane consumes the stream a per-agent loop would.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import PolicyConfig, PolicyKind


class AgentRecord(NamedTuple):
    """One agent's bandit memory, read out of the flat state."""

    candidate_irs: tuple[int, ...]
    rewards: np.ndarray
    current_irs: int
    consecutive_unsatisfied: int


class Agents:
    """Bandit memory of every agent of one or more lanes.

    rewards[s] counts the satisfied periods of slot s; slot[u] is the flat
    slot of agent u's current panel; unsat[u] counts periods since agent
    u's last satisfied one and is reset only by a satisfied period. arms[s]
    is the panel index of slot s within its lane. Lane l owns agents
    lanes[l] to lanes[l + 1] - 1, at least one, and runs policies[l]; by
    default every agent forms one lane. phi[u] is agent u's stickiness, 0
    for greedy agents, which never stay put. Indexing or iterating yields
    one AgentRecord per agent.
    """

    def __init__(self, offsets, arms, policies, lanes=None):
        offsets = np.asarray(offsets, dtype=np.int64)
        self.arms = arms
        self.starts = offsets[:-1]
        self.sizes = np.diff(offsets)
        if (self.sizes < 1).any():
            raise ValueError("every agent needs at least one candidate panel")
        self._start_list = self.starts.tolist()
        self._size_list = self.sizes.tolist()
        self.policies = tuple(policies)
        self.lanes = [0, len(self.starts)] if lanes is None else list(lanes)
        if len(self.lanes) != len(self.policies) + 1:
            raise ValueError("need one policy per lane")
        if (np.diff(self.lanes) < 1).any():
            raise ValueError("every lane needs at least one agent")
        self.phi = np.repeat(
            [0 if p.kind is PolicyKind.GREEDY else p.phi for p in self.policies],
            np.diff(self.lanes),
        )
        self.rewards = np.zeros(len(arms), dtype=np.int64)
        self.slot = np.full(len(self.starts), -1, dtype=np.int64)
        self.unsat = np.zeros(len(self.starts), dtype=np.int64)
        self.initialized = False

    def __len__(self) -> int:
        return len(self.slot)

    def lane(self, l: int) -> Agents:
        """A copy of lane l's agents alone, as one lane with its slots from 0."""
        lo, hi = self.lanes[l], self.lanes[l + 1]
        s_lo = self._start_list[lo]
        s_hi = s_lo + sum(self._size_list[lo:hi])
        offsets = np.append(self.starts[lo:hi], s_hi) - s_lo
        part = Agents(offsets, self.arms[s_lo:s_hi], self.policies[l : l + 1])
        part.rewards = self.rewards[s_lo:s_hi].copy()
        part.slot = self.slot[lo:hi] - s_lo
        part.unsat = self.unsat[lo:hi].copy()
        part.initialized = self.initialized
        return part

    def __getitem__(self, u: int) -> AgentRecord:
        u = range(len(self))[u]
        lo = self._start_list[u]
        hi = lo + self._size_list[u]
        return AgentRecord(
            candidate_irs=tuple(self.arms[lo:hi].tolist()),
            rewards=self.rewards[lo:hi],
            current_irs=int(self.arms[self.slot[u]]) if self.initialized else -1,
            consecutive_unsatisfied=int(self.unsat[u]),
        )


def effective_config(cfg: PolicyConfig) -> PolicyConfig:
    """The config with every field the policy never reads reset to its default.

    Greedy reads neither omega nor phi, so two greedy configs that differ
    only there run identically; the bandit reads all of them.
    """
    if cfg.kind is PolicyKind.GREEDY:
        return PolicyConfig(kind=cfg.kind)
    return cfg


def segment_argmax(values: np.ndarray, agents: Agents):
    """Per agent: the slot of its largest value, ties to the lowest slot, and that value."""
    top = np.maximum.reduceat(values, agents.starts)
    hits = np.flatnonzero(values == np.repeat(top, agents.sizes))
    return hits[hits.searchsorted(agents.starts)], top


def init_association(agents: Agents, rssi, rngs) -> np.ndarray:
    """First-period association; sets and returns every agent's slot.

    The bandit starts on the candidate with the strongest RSSI (ties to
    the lowest index); the greedy baseline starts on a uniform random
    candidate, one integer draw per agent in agent order from its lane's
    Generator (rngs[l] for lane l). When no signal context exists (rssi is
    None, as in abstract plug-in environments) the bandit also starts
    uniformly at random. Re-initialization is an error.
    """
    if agents.initialized:
        raise ValueError("agents are already initialized")
    if rssi is None:
        slot = agents.starts.copy()
    else:
        rssi = np.asarray(rssi, dtype=float)
        if rssi.shape != agents.rewards.shape:
            raise ValueError("rssi vector must align with the candidate slots")
        slot = segment_argmax(rssi, agents)[0]
    starts, sizes = agents._start_list, agents._size_list
    for cfg, rng, lo, hi in zip(agents.policies, rngs, agents.lanes, agents.lanes[1:]):
        if rssi is None or cfg.kind is PolicyKind.GREEDY:
            integers = rng.integers
            for u in range(lo, hi):
                slot[u] = starts[u] + int(integers(sizes[u]))
    agents.slot = slot
    agents.unsat[:] = 0
    agents.initialized = True
    return slot


def select_irs(agents: Agents, rngs) -> np.ndarray:
    """One re-association decision per agent; sets and returns every slot.

    Bandit: an agent whose current panel's accumulated reward ties its
    maximum and whose consecutive-unsatisfied counter is below phi stays
    put (no draw). Each other agent, in agent order, draws u ~ U[0,1) from
    its lane's Generator (rngs[l] for lane l): u < omega explores a uniform
    random candidate (one integer draw), else it exploits the argmax
    accumulated reward, ties to the lowest index. Greedy: always exploit,
    no stickiness, no exploration, no draws.
    """
    if not agents.initialized:
        raise ValueError("agents are not initialized")
    best, top = segment_argmax(agents.rewards, agents)
    slot = agents.slot
    movers = np.flatnonzero((agents.rewards[slot] != top) | (agents.unsat >= agents.phi))
    if len(movers):
        chosen = best[movers]
        mover_list = movers.tolist()
        bounds = movers.searchsorted(agents.lanes).tolist()
        starts, sizes = agents._start_list, agents._size_list
        for cfg, rng, lo, hi in zip(agents.policies, rngs, bounds, bounds[1:]):
            if cfg.kind is PolicyKind.GREEDY:
                continue
            omega = cfg.omega
            random, integers = rng.random, rng.integers
            for k in range(lo, hi):
                if random() < omega:
                    u = mover_list[k]
                    chosen[k] = starts[u] + int(integers(sizes[u]))
        slot[movers] = chosen
    return slot


def update(agents: Agents, satisfied: np.ndarray) -> Agents:
    """Record the outcome of the period just run on every agent's current slot.

    Satisfied: the current slot's reward grows by one and the
    consecutive-unsatisfied counter resets. Unsatisfied: rewards are
    untouched and the counter grows by one.
    """
    if not agents.initialized:
        raise ValueError("agents are not initialized")
    agents.rewards[agents.slot] += satisfied  # slots of distinct agents never repeat
    agents.unsat += 1
    agents.unsat[satisfied] = 0
    return agents
