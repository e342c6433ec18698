import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbandit import engine, policy
from irsbandit.config import PolicyConfig, PolicyKind, SimulationConfig
from irsbandit.policy import (
    Agents,
    decision_inputs,
    init_association,
    segment_argmax,
    select_irs,
    set_targets,
    uniform_slots,
    update,
)
from irsbandit.topology import build_network

CB = PolicyKind.CONTEXTUAL_BANDIT
GREEDY = PolicyKind.GREEDY


def agents(*candidates, policy=PolicyConfig()):
    """Fresh flat state of one lane: one agent per candidate tuple, (0, 1, 2) by default."""
    candidates = candidates or ((0, 1, 2),)
    offsets = list(itertools.accumulate(map(len, candidates), initial=0))
    arms = np.array([a for c in candidates for a in c], dtype=np.int64)
    return Agents(offsets, arms, [policy])


def initialized_agent(
    candidates=(0, 1, 2), current=0, rewards=None, streak=0, policy=PolicyConfig()
):
    """One initialized agent on panel `current`."""
    a = agents(tuple(candidates), policy=policy)
    a.initialized = True
    a.slot[0] = list(candidates).index(current)
    if rewards is not None:
        a.rewards[:] = rewards
    set_targets(a)
    a.unsat[0] = streak
    return a


def panels(a):
    """Every agent's current panel."""
    return a.arms[a.slot].tolist()


def block(a, u1=0.5, u2=0.0):
    """The decision inputs of a policy block of one (u1, u2) row per agent,
    every row alike."""
    return decision_inputs(a, np.tile([u1, u2], (len(a), 1)))


LAST_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest uniform a Generator draws


class TestInitAssociation:
    """The warm start an environment hands over is segment_argmax of its RSSI."""

    def test_cb_takes_strongest_rssi(self):
        a = agents()
        strongest = segment_argmax(np.array([-70.0, -60.0, -80.0]), a)
        slot = init_association(a, strongest, block(a, u2=0.9))
        assert a.arms[slot].tolist() == [1]
        assert a.initialized and a[0].current_irs == 1
        # every agent picks within its own segment
        b = agents((0, 1, 2), (3, 4), (5,), (6, 7, 8))
        rssi = np.array([-70.0, -60.0, -80.0, -50.0, -55.0, -99.0, -90.0, -91.0, -10.0])
        init_association(b, segment_argmax(rssi, b), block(b, u2=0.0))
        assert panels(b) == [1, 3, 5, 8]

    def test_cb_rssi_tie_goes_low(self):
        a = agents((5, 9), (2, 3, 4))
        rssi = np.array([-60.0, -60.0, -1.0, 0.0, 0.0])
        init_association(a, segment_argmax(rssi, a), block(a, u2=0.9))
        assert panels(a) == [5, 3]

    def test_greedy_starts_where_u2_points(self):
        # floor(u2 * 8) of 8 candidates, whether or not a signal exists
        for rssi in (None, np.array([0.0] * 7 + [9.0])):
            for u2, want in ((0.0, 10), (0.3, 12), (0.9999, 17), (LAST_BELOW_ONE, 17)):
                a = agents(tuple(range(10, 18)), policy=PolicyConfig(kind=GREEDY))
                strongest = None if rssi is None else segment_argmax(rssi, a)
                init_association(a, strongest, block(a, u1=0.0, u2=u2))
                assert panels(a) == [want]

    def test_reinitialization_rejected(self):
        a = initialized_agent()
        with pytest.raises(ValueError, match="already initialized"):
            init_association(a, [0], block(a))

    @pytest.mark.parametrize(
        "strongest",
        [[0], [0, 1, 2], [2, 2], [0, 1], [-1, 2], [1, 3]],
        ids=["short", "long", "past-first-agent", "before-last-agent", "negative", "past-end"],
    )
    def test_misaligned_strongest_slots_rejected(self, strongest):
        a = agents((1, 2), (3,))  # agent 0 owns slots 0 and 1, agent 1 slot 2
        with pytest.raises(ValueError, match="align"):
            init_association(a, strongest, block(a))
        assert not a.initialized

    def test_lead_is_made_from_the_rewards(self):
        # rewards that precede the start set the lead: slot 1 trails the target by 5
        a = agents(policy=PolicyConfig(kind=CB, omega=0.0, phi=2))
        a.rewards[:] = [5, 0, 2]
        init_association(a, [1], block(a))
        assert a.best.tolist() == [0] and a.lead.tolist() == [-5]
        select_irs(a, block(a))  # below its target, so it moves though unsat < phi
        assert panels(a) == [0]

    @pytest.mark.parametrize("case", ["channel-warm-start", "no-signal", "lanes"])
    def test_fresh_agents_start_on_their_first_slots_without_a_scan(self, monkeypatch, case):
        """Agents whose counters were never read start with every target on
        the agent's first slot and every lead 0, made without segment_argmax;
        the targets are their own array, so an update that moves them leaves
        the agents' starts as they were."""
        if case == "channel-warm-start":  # a lane's warm start on a default network
            cfg = SimulationConfig()
            rng = np.random.default_rng(11)
            env = engine.ChannelEnvironment(
                build_network(cfg.topology, rng), cfg.channel, cfg.rate_threshold
            )
            lanes = engine.ChannelLanes([env], [rng])
            a = Agents(env.offsets, env.arms, [cfg.policy])
            inputs = lanes.draw(a)
            strongest = lanes.strongest(a)
        else:
            if case == "no-signal":
                a = agents((0, 1, 2), (3, 4), (5,), (6, 7, 8, 9))
            else:  # bandit and greedy lanes with mixed candidate counts
                sizes = [3, 1, 4, 2, 5, 2]
                a = Agents(
                    list(itertools.accumulate(sizes, initial=0)),
                    np.concatenate([np.arange(n) for n in sizes]),
                    [PolicyConfig(phi=2), PolicyConfig(kind=GREEDY), PolicyConfig(omega=0.5)],
                    [0, 2, 3, 6],
                )
            inputs = decision_inputs(a, np.random.default_rng(3).random((len(a), 2)))
            strongest = None
        starts = a.starts.copy()

        def scan(values, segments):
            raise AssertionError("segment_argmax called on fresh agents")

        monkeypatch.setattr(policy, "segment_argmax", scan)
        assert "rewards" not in vars(a)
        slot = init_association(a, strongest, inputs)
        _assert_equal(a.best, starts)
        _assert_equal(a.lead, np.zeros(len(a), dtype=np.int64))
        _assert_equal(a.rewards, np.zeros(len(a.arms), dtype=np.int64))
        assert (slot != starts).any()
        update(a, np.ones(len(a), dtype=bool))  # every target moves to its agent's slot
        _assert_equal(a.best, slot)
        _assert_equal(a.starts, starts)

    def test_cb_without_signal_context_draws_uniformly(self):
        counts = np.zeros(3)
        for seed in range(300):
            a = agents()
            rows = np.random.default_rng(seed).random((1, 2))
            init_association(a, None, decision_inputs(a, rows))
            counts[panels(a)[0]] += 1
        assert counts.min() > 60  # roughly uniform across 3 arms


class TestSelectIrs:
    def test_pure_exploitation_argmax(self):
        cfg = PolicyConfig(kind=CB, omega=0.0, phi=1)
        a = initialized_agent(current=1, rewards=[5, 2, 9], policy=cfg)
        a.unsat[0] = 1  # current not argmax anyway
        select_irs(a, block(a, u1=0.0))
        assert panels(a) == [2]

    def test_greedy_tie_goes_low(self):
        a = initialized_agent(current=2, rewards=[4, 4, 1], policy=PolicyConfig(kind=GREEDY))
        select_irs(a, block(a, u1=0.0, u2=0.9))  # greedy never explores
        assert panels(a) == [0]

    def test_stickiness_overrides_omega(self):
        # on the argmax panel with streak < phi: stays even at omega = 1
        cfg = PolicyConfig(kind=CB, omega=1.0, phi=3)
        a = initialized_agent(current=2, rewards=[1, 2, 7], streak=1, policy=cfg)
        select_irs(a, block(a, u1=0.0, u2=0.0))
        assert panels(a) == [2]

    def test_streak_at_phi_forces_decision(self):
        cfg = PolicyConfig(kind=CB, omega=0.0, phi=3)
        a = initialized_agent(current=2, rewards=[1, 2, 7], streak=3, policy=cfg)
        select_irs(a, block(a, u1=0.0, u2=0.0))
        assert panels(a) == [2]  # argmax again
        cfg = PolicyConfig(kind=CB, omega=1.0, phi=3)
        a = initialized_agent(current=2, rewards=[1, 2, 7], streak=3, policy=cfg)
        select_irs(a, block(a, u1=0.0, u2=0.0))
        assert panels(a) == [0]  # explored where u2 points

    def test_uninitialized_rejected(self):
        with pytest.raises(ValueError, match="not initialized"):
            select_irs(agents(), block(agents()))

    def test_second_decision_before_update_rejected(self):
        a = initialized_agent(current=1, rewards=[5, 2, 9])
        select_irs(a, block(a))
        with pytest.raises(ValueError, match="already decided"):
            select_irs(a, block(a))
        update(a, np.array([True]))
        select_irs(a, block(a))

    def test_exploration_rate_respected(self):
        cfg = PolicyConfig(kind=CB, omega=0.3, phi=1)
        trials = 4000
        a = agents(*[(0, 1, 2)] * trials, policy=cfg)
        a.initialized = True
        a.slot[:] = a.starts + 1
        a.rewards[:] = np.tile([0, 9, 0], trials)
        set_targets(a)
        a.unsat[:] = 5
        select_irs(a, decision_inputs(a, np.random.default_rng(11).random((trials, 2))))
        explored = np.count_nonzero(a.arms[a.slot] != 1)
        # explore picks uniformly among 3 arms, so P(leave argmax) = omega * 2/3
        assert abs(explored / trials - 0.2) < 0.02

    def test_reduction_to_greedy(self):
        # omega = 0, phi = 1, no ties: always the argmax, like greedy
        rng = np.random.default_rng(3)
        n = 200
        rewards = np.empty((n, 4), dtype=np.int64)
        for row in rewards:
            row[:] = rng.integers(0, 50, size=4)
            while len(np.unique(row)) < 4:
                row[:] = rng.integers(0, 50, size=4)
        streak = rng.integers(0, 5, size=n)
        current = rng.integers(4, size=n)
        cb = agents(*[(0, 1, 2, 3)] * n, policy=PolicyConfig(kind=CB, omega=0.0, phi=1))
        gr = agents(*[(0, 1, 2, 3)] * n, policy=PolicyConfig(kind=GREEDY))
        for a in (cb, gr):
            a.initialized = True
            a.slot[:] = a.starts + current
            a.rewards[:] = rewards.ravel()
            set_targets(a)
            a.unsat[:] = streak
        uniform = rng.random((n, 2))
        select_irs(cb, decision_inputs(cb, uniform))
        select_irs(gr, decision_inputs(gr, uniform))
        assert panels(cb) == panels(gr) == rewards.argmax(axis=1).tolist()

    def test_argmax_invariant_under_positive_scaling(self):
        # scaled-comparison harness: scaling all accumulators by a positive
        # constant never changes the exploitation choice
        rng = np.random.default_rng(4)
        cfg = PolicyConfig(kind=CB, omega=0.0, phi=1)
        for _ in range(100):
            rewards = rng.integers(0, 30, size=5)
            for scale in (2, 7):
                a = initialized_agent(range(5), 0, rewards, streak=9, policy=cfg)
                b = initialized_agent(range(5), 0, rewards * scale, streak=9, policy=cfg)
                select_irs(a, block(a))
                select_irs(b, block(b))
                assert panels(a) == panels(b)
        two = agents((0, 1, 2), (3, 4, 5))
        values = np.array([1.0, 3.0, 3.0, 4.0, 5.0, 5.0])
        low = segment_argmax(values, two)
        high = segment_argmax(values * 2.0, two)
        assert low.tolist() == high.tolist() == [1, 4]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_decision_inputs_of_a_block_are_each_rows_own(k):
    """decision_inputs of k periods' rows (..., U, 2), read strided out of a
    [U | U x 2] block as BernoulliLanes holds them, equals k per-row calls."""
    a = Agents(
        [0, 3, 4, 8, 10],
        np.array([0, 1, 2, 0, 0, 1, 2, 3, 0, 1]),
        [PolicyConfig(kind=CB, omega=0.3), PolicyConfig(kind=GREEDY)],
        [0, 2, 4],
    )
    n = len(a)
    block = np.random.default_rng(k).random((k, 3 * n))
    block[0, n] = 0.3  # u1 == omega: not an exploration
    block[-1, n + 1] = LAST_BELOW_ONE  # the largest u2: the last slot
    rows = block[:, n:].reshape(k, n, 2)
    explore, jump = decision_inputs(a, rows)
    assert explore.shape == jump.shape == (k, n)
    for t in range(k):
        want = decision_inputs(a, np.ascontiguousarray(rows[t]))
        _assert_equal(explore[t], want[0])
        _assert_equal(jump[t], want[1])
    assert not explore[0, 0] and jump[-1, 0] == 2


def test_largest_uniform_picks_the_last_slot():
    # u2 * n rounds below n at the largest uniform, for every n, powers of two included
    sizes = np.arange(1, 4097)
    picked = uniform_slots(np.zeros_like(sizes), sizes, np.full(len(sizes), LAST_BELOW_ONE))
    assert (picked < sizes).all() and (picked == sizes - 1).all()
    assert uniform_slots(np.array([5]), np.array([4096]), np.array([0.0])).tolist() == [5]


class TestUpdate:
    def test_satisfied_increments_and_resets(self):
        a = initialized_agent((0, 1), current=1, rewards=[0, 3], streak=2)
        update(a, np.array([True]))
        assert a.rewards.tolist() == [0, 4]
        assert a.unsat.tolist() == [0]

    def test_unsatisfied_leaves_rewards(self):
        a = initialized_agent((0, 1), current=1, rewards=[0, 3], streak=0)
        update(a, np.array([False]))
        assert a.rewards.tolist() == [0, 3]
        assert a.unsat.tolist() == [1]

    def test_overtaking_slot_takes_the_target_and_keeps_its_lead(self):
        # slot 1 ties the target at slot 0 from above, then overtakes it;
        # slot 2 trails the target, which stays
        a = initialized_agent((0, 1, 2), current=1, rewards=[3, 3, 1], streak=2)
        update(a, np.array([False]))
        assert a.best.tolist() == [0] and a.lead.tolist() == [0] and a.unsat.tolist() == [3]
        update(a, np.array([True]))
        assert a.best.tolist() == [1] and a.lead.tolist() == [1] and a.unsat.tolist() == [0]
        b = initialized_agent((0, 1, 2), current=2, rewards=[3, 3, 1])
        update(b, np.array([True]))
        assert b.best.tolist() == [0] and b.lead.tolist() == [-1]
        assert b.rewards.tolist() == [3, 3, 2]

    def test_streak_counts_consecutive(self):
        a = initialized_agent((0, 1), current=0)
        for _ in range(3):
            update(a, np.array([False]))
        assert a.unsat.tolist() == [3]

    def test_uninitialized_rejected(self):
        with pytest.raises(ValueError):
            update(agents(), np.array([True]))


def test_agent_records_read_the_flat_state():
    a = agents((4, 7), (1,), (2, 3, 9))
    assert len(a) == 3 and a[1].current_irs == -1
    a.initialized = True
    a.slot[:] = [1, 2, 5]
    a.rewards[:] = [0, 6, 1, 2, 0, 5]
    set_targets(a)
    a.unsat[:] = [0, 3, 1]
    records = list(a)
    assert [r.candidate_irs for r in records] == [(4, 7), (1,), (2, 3, 9)]
    assert [r.rewards.tolist() for r in records] == [[0, 6], [1], [2, 0, 5]]
    assert [r.current_irs for r in records] == [7, 1, 9]
    assert [r.consecutive_unsatisfied for r in records] == [0, 3, 1]
    assert a[-1].candidate_irs == (2, 3, 9)
    with pytest.raises(IndexError):
        a[3]
    with pytest.raises(ValueError, match="at least one candidate"):
        agents((0, 1), ())
    with pytest.raises(ValueError, match="at least one agent"):
        Agents([0], np.empty(0, dtype=np.int64), [PolicyConfig()])
    two = [PolicyConfig(), PolicyConfig(kind=GREEDY)]
    with pytest.raises(ValueError, match="at least one agent"):
        Agents([0, 2, 3], np.array([4, 7, 1]), two, lanes=[0, 0, 2])
    mixed = Agents([0, 2, 3], np.array([4, 7, 1]), two, lanes=[0, 1, 2])
    assert mixed.phi.tolist() == [2, 0] and mixed.omega.tolist() == [0.1, 0.0]
    with pytest.raises(ValueError, match="one policy per lane"):
        Agents([0, 2, 3], np.array([4, 7, 1]), two[:1], lanes=[0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=200), seed=st.integers(0, 2**31))
def test_reward_monotone_and_conserved(outcomes, seed):
    rng = np.random.default_rng(seed)
    a = agents((0, 1, 2, 3), policy=PolicyConfig(kind=CB, omega=0.2, phi=2))
    init_association(a, None, decision_inputs(a, rng.random((1, 2))))
    prev = a.rewards.copy()
    for sat in outcomes:
        select_irs(a, decision_inputs(a, rng.random((1, 2))))
        update(a, np.array([sat]))
        assert (a.rewards >= prev).all()  # never decreases
        prev = a.rewards.copy()
    assert a.rewards.sum() == sum(outcomes)  # total reward = satisfied periods
    if outcomes[-1]:
        assert a.unsat.tolist() == [0]


def rescanned_decisions(a, uniform):
    """select_irs's rule agent by agent, each agent's target taken afresh
    from its rewards: the first slot of the largest."""
    slots = []
    for u in range(len(a)):
        lo, cur = int(a.starts[u]), int(a.slot[u])
        rewards = a.rewards[lo : lo + int(a.sizes[u])].tolist()
        best = lo + rewards.index(max(rewards))
        if a.rewards[cur] == a.rewards[best] and a.unsat[u] < a.phi[u]:
            slots.append(cur)
        elif uniform[u, 0] < a.omega[u]:
            slots.append(lo + int(uniform[u, 1] * a.sizes[u]))
        else:
            slots.append(best)
    return slots


def _assert_equal(got, want):
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


LANE = st.tuples(
    st.sampled_from([CB, GREEDY]),
    st.sampled_from([1, 2, 4]),  # phi
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),  # omega
    st.lists(st.integers(1, 6), min_size=1, max_size=5),  # each agent's candidate count
)


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(LANE, min_size=1, max_size=4),
    periods=st.integers(1, 40),
    p_sat=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kept_target_is_the_argmax_and_decides_like_a_rescan(lanes, periods, p_sat, seed):
    """On a chunk of bandit and greedy lanes with mixed candidate counts, the
    target update keeps is segment_argmax of the rewards after every period,
    and every slot select_irs picks is the one a full rescan picks."""
    rng = np.random.default_rng(seed)
    sizes = [n for *_, counts in lanes for n in counts]
    a = Agents(
        list(itertools.accumulate(sizes, initial=0)),
        np.concatenate([np.arange(n) for n in sizes]),
        [PolicyConfig(kind=k, phi=phi, omega=omega) for k, phi, omega, _ in lanes],
        list(itertools.accumulate((len(lane[3]) for lane in lanes), initial=0)),
    )
    init_association(a, None, decision_inputs(a, rng.random((len(a), 2))))
    for _ in range(periods):
        update(a, rng.random(len(a)) < p_sat)
        _assert_equal(a.best, segment_argmax(a.rewards, a))
        uniform = rng.random((len(a), 2))
        want = rescanned_decisions(a, uniform)
        assert select_irs(a, decision_inputs(a, uniform)).tolist() == want


def _assert_targets(a):
    """best is segment_argmax of the rewards and, unless a decision awaits its
    update, lead < 0 exactly where the current slot's reward trails the target's."""
    _assert_equal(a.best, segment_argmax(a.rewards, a))
    if not a.decided:
        _assert_equal(a.lead < 0, a.rewards[a.slot] < a.rewards[a.best])


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(LANE, min_size=1, max_size=4),
    steps=st.lists(st.sampled_from(["select", "update"]), max_size=30),
    warm=st.booleans(),
    p_sat=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_target_and_lead_follow_any_interleaving(lanes, steps, warm, p_sat, seed):
    """From random rewards, with or without a warm start, over any
    interleaving of select_irs and update on a chunk of bandit and greedy
    lanes: after every step, and in every lane's copy, the target is the
    argmax and the lead's sign is the current slot's reward against the
    target's (a decision leaves the leads to its update); every decision is
    a rescan's, and a second decision before update is refused unchanged."""
    rng = np.random.default_rng(seed)
    sizes = [n for *_, counts in lanes for n in counts]
    a = Agents(
        list(itertools.accumulate(sizes, initial=0)),
        np.concatenate([np.arange(n) for n in sizes]),
        [PolicyConfig(kind=k, phi=phi, omega=omega) for k, phi, omega, _ in lanes],
        list(itertools.accumulate((len(lane[3]) for lane in lanes), initial=0)),
    )
    a.rewards[:] = rng.integers(0, 3, len(a.rewards))
    strongest = a.starts + (rng.random(len(a)) * a.sizes).astype(np.int64) if warm else None
    init_association(a, strongest, decision_inputs(a, rng.random((len(a), 2))))
    _assert_targets(a)
    for step in steps:
        uniform = rng.random((len(a), 2))
        if step == "update":
            update(a, rng.random(len(a)) < p_sat)
        elif a.decided:
            before = a.slot.copy()
            with pytest.raises(ValueError, match="already decided"):
                select_irs(a, decision_inputs(a, uniform))
            _assert_equal(a.slot, before)
        else:
            want = rescanned_decisions(a, uniform)
            assert select_irs(a, decision_inputs(a, uniform)).tolist() == want
        _assert_targets(a)
        for l in range(len(lanes)):
            _assert_targets(a.lane(l))


def test_a_run_never_rescans_after_its_warm_start(monkeypatch):
    """Once period 1 has set every target, select_irs and update read no
    slot-length array: a channel chunk (bandit and greedy lanes sharing a
    stream) and a bandit and a greedy Bernoulli lane (a chunk each), with
    segment_argmax raising from then on, give the results they give without
    the patch."""
    cb = SimulationConfig(periods=6, replications=1)
    greedy = SimulationConfig(policy=PolicyConfig(kind=GREEDY), periods=6, replications=1)
    bernoulli = engine.BernoulliEnvironment((0.2, 0.5, 0.5, 0.9), n_agents=50)
    runs = [
        [engine.Lane(cb, 7), engine.Lane(greedy, 7), engine.Lane(cb, 8)],
        [engine.Lane(cb, 7, bernoulli), engine.Lane(greedy, 7, bernoulli)],
    ]
    assert [len(list(engine._chunks(lanes))) for lanes in runs] == [1, 2]
    want = [engine.run_lanes(lanes, record=True) for lanes in runs]

    real_argmax, real_init = policy.segment_argmax, policy.init_association

    def rescan(values, agents):
        raise AssertionError("segment_argmax called after period 1")

    def init_then_forbid(*args):
        slot = real_init(*args)
        monkeypatch.setattr(policy, "segment_argmax", rescan)
        return slot

    monkeypatch.setattr(policy, "init_association", init_then_forbid)
    for lanes, results in zip(runs, want):
        monkeypatch.setattr(policy, "segment_argmax", real_argmax)
        for got, res in zip(engine.run_lanes(lanes, record=True), results, strict=True):
            _assert_equal(got.chosen, res.chosen)
            _assert_equal(got.satisfied, res.satisfied)
        assert policy.segment_argmax is rescan


def test_two_armed_sanity_quick():
    # arm 0 satisfies w.p. 0.9, arm 1 w.p. 0.1: the bandit should sit on
    # arm 0 most of the time late in the run (full check in acceptance)
    cfg = PolicyConfig(kind=CB, omega=0.1, phi=1)
    fractions = []
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        a = agents((0, 1), policy=cfg)
        init_association(a, None, decision_inputs(a, rng.random((1, 2))))
        picks = []
        first = True
        for t in range(400):
            if first:
                first = False
            else:
                select_irs(a, decision_inputs(a, rng.random((1, 2))))
            picks.append(panels(a)[0])
            update(a, np.array([rng.random() < (0.9 if picks[-1] == 0 else 0.1)]))
        fractions.append(np.mean(np.array(picks[199:400]) == 0))
    assert np.mean(fractions) >= 0.8
