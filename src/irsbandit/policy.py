"""Per-UE association agents.

Two policies over the same per-agent state: the bandit policy (RSSI warm
start, epsilon-style exploration with rate omega, stickiness phi) and the
greedy baseline (random start, then always the largest accumulated reward).
Rewards are integer counters of satisfied periods, one per candidate panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PolicyConfig, PolicyKind


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


def effective_config(cfg: PolicyConfig) -> PolicyConfig:
    """The config with every field the policy never reads reset to its default.

    Greedy reads neither omega nor phi, so two greedy configs that differ
    only there run identically; the bandit reads all of them.
    """
    if cfg.kind is PolicyKind.GREEDY:
        return PolicyConfig(kind=cfg.kind)
    return cfg


def init_association(
    agent: AgentState,
    cfg: PolicyConfig,
    rssi_per_candidate,
    rng: np.random.Generator,
) -> int:
    """First-period association.

    The bandit starts on the candidate with the strongest RSSI (ties to
    the lowest index); the greedy baseline starts on a uniform random
    candidate. When no signal context exists (rssi_per_candidate is None,
    as in abstract plug-in environments) the bandit also starts uniformly
    at random. Re-initialization is an error.
    """
    if agent.initialized:
        raise ValueError("agent is already initialized")
    if cfg.kind is PolicyKind.CONTEXTUAL_BANDIT and rssi_per_candidate is not None:
        rssi = np.asarray(rssi_per_candidate, dtype=float)
        if rssi.shape != (len(agent.candidate_irs),):
            raise ValueError("rssi vector must align with the candidate list")
        local = argmax_lowest(rssi)
    else:
        local = int(rng.integers(len(agent.candidate_irs)))
    agent.current_irs = agent.candidate_irs[local]
    agent.consecutive_unsatisfied = 0
    agent.initialized = True
    return agent.current_irs


def select_irs(agent: AgentState, cfg: PolicyConfig, rng: np.random.Generator) -> int:
    """One re-association decision; sets and returns the agent's panel.

    Bandit: if the current panel's accumulated reward ties the maximum and
    the consecutive-unsatisfied counter is below phi, stay put (no draw).
    Otherwise draw u ~ U[0,1): u < omega explores a uniform random
    candidate, else exploit the argmax accumulated reward, ties to the
    lowest index. Greedy: always exploit, no stickiness, no exploration.
    """
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
    """Record the outcome of the period just run on the current panel.

    Satisfied: the current panel's reward grows by one and the
    consecutive-unsatisfied counter resets. Unsatisfied: rewards are
    untouched and the counter grows by one.
    """
    if not agent.initialized:
        raise ValueError("agent is not initialized")
    if satisfied:
        agent.rewards[agent.local_index(agent.current_irs)] += 1
        agent.consecutive_unsatisfied = 0
    else:
        agent.consecutive_unsatisfied += 1
    return agent
