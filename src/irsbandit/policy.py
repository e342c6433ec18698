"""Association agents of one replication, held as flat arrays.

Two policies over the same state: the bandit policy (RSSI warm start,
epsilon-style exploration with rate omega, stickiness phi) and the greedy
baseline (random start, then always the largest accumulated reward).
Rewards are integer counters of satisfied periods, one per candidate panel.

Every agent's candidates occupy a contiguous run of slots in one flat
layout shared with the environment: agent u owns slots offsets[u] to
offsets[u + 1] - 1, in its candidate order. The rules act on all agents at
once; only the random draws run agent by agent, in agent order, so each
period consumes the stream a per-agent loop would.
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
    """Bandit memory of every agent of one replication.

    rewards[s] counts the satisfied periods of slot s; slot[u] is the flat
    slot of agent u's current panel; unsat[u] counts periods since agent
    u's last satisfied one and is reset only by a satisfied period. arms[s]
    is the global panel index of slot s. Indexing or iterating yields one
    AgentRecord per agent.
    """

    def __init__(self, offsets, arms):
        offsets = np.asarray(offsets, dtype=np.int64)
        self.arms = arms
        self.starts = offsets[:-1]
        self.sizes = np.diff(offsets)
        if (self.sizes < 1).any():
            raise ValueError("every agent needs at least one candidate panel")
        self._start_list = self.starts.tolist()
        self._size_list = self.sizes.tolist()
        self.rewards = np.zeros(len(arms), dtype=np.int64)
        self.slot = np.full(len(self.starts), -1, dtype=np.int64)
        self.unsat = np.zeros(len(self.starts), dtype=np.int64)
        self.initialized = False

    def __len__(self) -> int:
        return len(self.slot)

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


def init_association(
    agents: Agents, cfg: PolicyConfig, rssi, rng: np.random.Generator
) -> np.ndarray:
    """First-period association; sets and returns every agent's slot.

    The bandit starts on the candidate with the strongest RSSI (ties to
    the lowest index); the greedy baseline starts on a uniform random
    candidate, one integer draw per agent in agent order. When no signal
    context exists (rssi is None, as in abstract plug-in environments) the
    bandit also starts uniformly at random. Re-initialization is an error.
    """
    if agents.initialized:
        raise ValueError("agents are already initialized")
    if cfg.kind is PolicyKind.CONTEXTUAL_BANDIT and rssi is not None:
        rssi = np.asarray(rssi, dtype=float)
        if rssi.shape != agents.rewards.shape:
            raise ValueError("rssi vector must align with the candidate slots")
        agents.slot = segment_argmax(rssi, agents)[0]
    else:
        integers = rng.integers
        agents.slot = np.fromiter(
            (lo + int(integers(n)) for lo, n in zip(agents._start_list, agents._size_list)),
            dtype=np.int64,
            count=len(agents),
        )
    agents.unsat[:] = 0
    agents.initialized = True
    return agents.slot


def select_irs(
    agents: Agents, cfg: PolicyConfig, rng: np.random.Generator
) -> np.ndarray:
    """One re-association decision per agent; sets and returns every slot.

    Bandit: an agent whose current panel's accumulated reward ties its
    maximum and whose consecutive-unsatisfied counter is below phi stays
    put (no draw). Each other agent, in agent order, draws u ~ U[0,1):
    u < omega explores a uniform random candidate (one integer draw), else
    it exploits the argmax accumulated reward, ties to the lowest index.
    Greedy: always exploit, no stickiness, no exploration, no draws.
    """
    if not agents.initialized:
        raise ValueError("agents are not initialized")
    best, top = segment_argmax(agents.rewards, agents)
    if cfg.kind is PolicyKind.GREEDY:
        agents.slot = best
        return best
    slot = agents.slot
    movers = np.flatnonzero(
        (agents.rewards[slot] != top) | (agents.unsat >= cfg.phi)
    )
    if len(movers):
        chosen = best[movers]
        omega = cfg.omega
        random, integers = rng.random, rng.integers
        starts, sizes = agents._start_list, agents._size_list
        for k, u in enumerate(movers.tolist()):
            if random() < omega:
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
