"""Association agents of one or more lanes, held as flat arrays.

Two policies over the same state: the bandit policy (RSSI warm start,
epsilon-style exploration with rate omega, stickiness phi) and the greedy
baseline (random start, then always the largest accumulated reward).
Rewards are integer counters of satisfied periods, one per candidate panel.
Each agent keeps its exploit target, the slot of its largest reward, and
update advances it in O(agents): only the current slot's reward grows, so
the target moves only to that slot. This needs a reward that never falls;
a mean reward would have to recompute the target over every slot. Each
agent also keeps its lead, its current slot's reward minus its target's,
as update computes it to advance the target, so the decision's stay test
reads one array instead of gathering two rewards. A decision moves slots
without making their leads (that would take the two gathers back), so
update must record its outcome before the next decision.

Every agent's candidates occupy a contiguous run of slots in one flat
layout shared with the environment: agent u owns slots offsets[u] to
offsets[u + 1] - 1, in its candidate order. A lane is one replication: a
contiguous run of agents with one policy config. The rules act on every
agent of every lane at once and draw nothing: each decision reads a
uniform block with one row (u1, u2) per agent, which the engine draws
every period (see its determinism contract), through its decision inputs
(decision_inputs): the explore draw u1 < omega and the jump slot
starts[u] + floor(u2 * sizes[u]), agent u's uniform random slot, for
exploring and for a random start. They are made from the rows alone, so
the engine may make them for several periods' rows at once.

Masked writes go through np.putmask: its mask and values have the agents'
shape, so it writes what np.copyto(..., where=mask) or a boolean-mask
store writes, for less call overhead than either, which is most of a
write's cost at a few hundred agents.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import PolicyConfig, PolicyKind


class AgentRecord(NamedTuple):
    """One agent's bandit memory, read out of the flat state."""

    candidate_irs: tuple[int, ...]
    rewards: np.ndarray
    current_irs: int
    consecutive_unsatisfied: int


class Segments:
    """Slot runs: segment u is sizes[u] >= 1 slots from starts[u]."""

    def __init__(self, offsets):
        offsets = np.asarray(offsets, dtype=np.int64)
        self.starts = offsets[:-1]
        self.sizes = np.diff(offsets)
        if (self.sizes < 1).any():
            raise ValueError("every agent needs at least one candidate panel")


class Agents(Segments):
    """Bandit memory of every agent of one or more lanes, each agent a segment of slots.

    rewards[s] counts the satisfied periods of slot s; the counters are made,
    as zeros, on their first read, which in a run is init_association's, so
    constructing the agents makes no slot-sized array. slot[u] is the flat
    slot of agent u's current panel; unsat[u] counts periods since agent
    u's last satisfied one and is reset only by a satisfied period. arms[s]
    is the panel index of slot s within its lane. best[u] is agent u's
    exploit target, the slot of its largest reward, ties to the lowest
    slot: init_association makes it (best and lead exist from then on)
    and update keeps it, so no decision
    scans the slots. lead[u] is rewards[slot[u]] - rewards[best[u]] as
    init_association or update last made it, 0 or 1 where update moved the
    target to the current slot, so lead[u] < 0 exactly when the current
    slot's reward is below the target's (set_targets makes best and lead
    from rewards and slot; on fresh agents every target is its agent's
    first slot and every lead 0). decided is True from select_irs until
    update: the slots have moved and the leads are not theirs yet, so
    select_irs refuses to decide again. Lane l owns agents
    lanes[l] to lanes[l + 1] - 1, at least one, and runs policies[l]; by
    default every agent forms one lane. bandit[u] is False for the agents
    of greedy lanes. phi[u] and omega[u] are agent u's
    stickiness and exploration rate, both 0 for greedy agents, which never
    stay put and never explore. float_sizes holds the sizes as float64 for
    decision_inputs. Indexing or iterating yields one
    AgentRecord per agent.
    """

    def __init__(self, offsets, arms, policies, lanes=None):
        super().__init__(offsets)
        self.arms = arms
        self.policies = tuple(policies)
        self.lanes = [0, len(self.starts)] if lanes is None else list(lanes)
        if len(self.lanes) != len(self.policies) + 1:
            raise ValueError("need one policy per lane")
        if (np.diff(self.lanes) < 1).any():
            raise ValueError("every lane needs at least one agent")
        lane_sizes = np.diff(self.lanes)
        self.bandit = np.repeat(
            [p.kind is not PolicyKind.GREEDY for p in self.policies], lane_sizes
        )
        self.phi = self.bandit * np.repeat([p.phi for p in self.policies], lane_sizes)
        self.omega = self.bandit * np.repeat([p.omega for p in self.policies], lane_sizes)
        self.float_sizes = self.sizes.astype(float)  # exact: uniform_slots multiplies no int64
        self.slot = np.full(len(self.starts), -1, dtype=np.int64)
        self.unsat = np.zeros(len(self.starts), dtype=np.int64)
        self.initialized = self.decided = False

    @cached_property
    def rewards(self) -> np.ndarray:
        """Every slot's reward counter, made as zeros on the first read and a
        plain attribute from then on."""
        return np.zeros(len(self.arms), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.slot)

    def lane(self, l: int) -> Agents:
        """A copy of lane l's agents alone, as one lane with its slots from 0."""
        lo, hi = self.lanes[l], self.lanes[l + 1]
        s_lo = int(self.starts[lo])
        s_hi = int(self.starts[hi - 1] + self.sizes[hi - 1])
        offsets = np.append(self.starts[lo:hi], s_hi) - s_lo
        part = Agents(offsets, self.arms[s_lo:s_hi], self.policies[l : l + 1])
        part.rewards = self.rewards[s_lo:s_hi].copy()
        part.slot = self.slot[lo:hi] - s_lo
        part.best = self.best[lo:hi] - s_lo
        part.lead = self.lead[lo:hi].copy()
        part.unsat = self.unsat[lo:hi].copy()
        part.initialized, part.decided = self.initialized, self.decided
        return part

    def __getitem__(self, u: int) -> AgentRecord:
        u = range(len(self))[u]
        lo = int(self.starts[u])
        hi = lo + int(self.sizes[u])
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


def segment_argmax(values: np.ndarray, agents: Segments) -> np.ndarray:
    """Per segment: the slot of its largest value, ties to the lowest slot."""
    top = np.maximum.reduceat(values, agents.starts)
    hits = (values == np.repeat(top, agents.sizes)).nonzero()[0]
    return hits[hits.searchsorted(agents.starts)]


def uniform_slots(starts: np.ndarray, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """starts + floor(u * sizes): for u in [0, 1), a uniform slot of each segment.

    The product rounds below sizes even at the largest double below 1, so
    the slot never leaves its segment. sizes may be int64 or their float64
    copies (exact below 2**53): the products are the same doubles, and
    float64 sizes spare numpy a mixed-type multiply.
    """
    return starts + (u * sizes).astype(np.int64)


def decision_inputs(agents: Agents, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What the decisions read of policy rows (..., U, 2), one (u1, u2) row per agent.

    Returns the explore draw u1 < omega and the jump slot
    starts + floor(u2 * sizes) (uniform_slots), each of shape (..., U): a
    block of k periods' rows gives the k periods' inputs in one pass, each
    period's bit for bit the one its rows alone give.
    """
    return rows[..., 0] < agents.omega, uniform_slots(agents.starts, agents.float_sizes, rows[..., 1])


def set_targets(agents: Agents) -> None:
    """Set every agent's exploit target and lead afresh from its rewards and slot."""
    agents.best = segment_argmax(agents.rewards, agents)
    agents.lead = agents.rewards[agents.slot] - agents.rewards[agents.best]


def init_association(agents: Agents, strongest, inputs) -> np.ndarray:
    """First-period association; sets and returns every agent's slot, and sets
    every exploit target and lead.

    Fresh agents, whose counters were never read, get their counters here,
    all 0, so every target is the agent's first slot and every lead is 0,
    which is what set_targets gives, set without its scan. Agents whose
    counters a caller read first, and may have filled, get set_targets.

    The bandit starts on strongest[u], agent u's slot of strongest RSSI
    (the environment's warm start, ties to the lowest slot); the greedy
    baseline starts on agent u's jump slot in inputs (decision_inputs),
    its uniform random candidate. When no signal context exists (strongest
    is None, as in abstract plug-in environments) the bandit also starts
    on that random candidate. Re-initialization is an error, and so is a
    strongest slot that is missing or outside its agent's candidates.
    """
    if agents.initialized:
        raise ValueError("agents are already initialized")
    slot = inputs[1].copy()
    if strongest is not None:
        strongest = np.asarray(strongest)
        if strongest.shape != slot.shape or (
            (strongest < agents.starts) | (strongest >= agents.starts + agents.sizes)
        ).any():
            raise ValueError("strongest slots must align with the agents' candidate slots")
        np.putmask(slot, agents.bandit, strongest)
    agents.slot = slot
    if "rewards" in vars(agents):  # counters a caller made first
        set_targets(agents)
    else:
        agents.rewards  # made on this first read, all 0
        agents.best = agents.starts.copy()  # update moves the targets in place
        agents.lead = np.zeros_like(agents.best)
    agents.unsat[:] = 0
    agents.initialized = True
    return slot


def select_irs(agents: Agents, inputs) -> np.ndarray:
    """One re-association decision per agent; sets and returns every slot.

    inputs is the period's (explore draw, jump slot), from decision_inputs.
    Bandit: an agent whose current panel's accumulated reward ties its
    maximum (its lead is not negative) and whose consecutive-unsatisfied
    counter is below phi stays put. Every other agent u whose explore draw
    is set (u1 < omega) explores its jump slot, its uniform random
    candidate; the rest exploit the argmax accumulated reward, ties to the
    lowest index (the kept target best). Greedy: always exploit (phi and
    omega are 0). The leads stay update's, so a second decision before
    update is an error.
    """
    if not agents.initialized:
        raise ValueError("agents are not initialized")
    if agents.decided:
        raise ValueError("agents already decided: update must record the outcome first")
    agents.decided = True
    explore_draw, jump = inputs
    slot = agents.slot
    move = agents.lead < 0
    move |= agents.unsat >= agents.phi
    np.putmask(slot, move, agents.best)
    np.putmask(slot, move & explore_draw, jump)
    return slot


def update(agents: Agents, satisfied: np.ndarray) -> Agents:
    """Record the outcome of the period just run on every agent's current slot.

    Satisfied: the current slot's reward grows by one and the
    consecutive-unsatisfied counter resets. Unsatisfied: rewards are
    untouched and the counter grows by one. The exploit target becomes the
    current slot when its reward now exceeds the target's, or equals it at
    a lower slot: no other slot's reward moved. The lead is the current
    slot's over the target before that move.
    """
    if not agents.initialized:
        raise ValueError("agents are not initialized")
    rewards, slot, best = agents.rewards, agents.slot, agents.best
    lead = rewards[slot]
    lead += satisfied
    rewards[slot] = lead  # slots of distinct agents never repeat
    lead -= rewards[best]  # the current slot's lead over the target, at most 1
    # it takes the target with a lead of 1, or of 0 from a lower slot
    np.putmask(best, lead >= (slot > best), slot)
    agents.lead = lead
    agents.unsat += 1
    np.putmask(agents.unsat, satisfied, 0)
    agents.decided = False
    return agents
