"""Monte-Carlo simulation loop.

A lane is one replication: a (config, seed) pair, optionally with a
BernoulliEnvironment in place of the configured network. Each lane owns its
agents and draws from default_rng(seed).
The replications of a cell are lanes with seeds base_seed + i and
aggregate by plain averaging, so their order never matters.

Lanes run in lock step, in chunks. The lanes of a chunk advance period by
period together, their slots and agents concatenated into one flat layout
(policy.Agents), so every step after the draws (the RSSI and its argmax,
the decisions, link evaluation with its logarithms, the reward update)
runs once per chunk rather than once per lane. Chunks are cut in lane
order: a chunk holds channel lanes of one key (_chunk_key: one period
count, one channel and one rate threshold) whose per-period draws total at
most CHUNK_FLOATS floats. A run of adjacent lanes on one stream is never
cut apart, and a run larger than the bound runs alone. A sweep's cells
differ only in policy and distribution case, so its channel lanes all
share one key.

Within a chunk, lanes whose draws and environment are equal by
construction form one stream: channel lanes with equal topology, channel
parameters, rate threshold, period count and seed. Lanes in one stream
differ only in policy, and the policy draws nothing, so the stream's
Generator, network, fading, policy block and slot state are made once and
every lane of the stream reads them. A Bernoulli lane is a stream and a
chunk of its own (its _stream_key and _chunk_key equal no other lane's),
since no caller outside the tests runs two side by side.

Determinism contract: each stream has one Generator, and every draw it
makes has a size fixed by the stream's shape after step 1 (I panels, U
agents, S slots, E eavesdroppers), never by what the agents did. In order:
  1. topology build (eavesdropper angles), then UE placement;
  2. per period t = 1..T:
     a. the environment block. A channel stream draws I + S + I*E Exp(1)
        gains in one call: BS->IRS, IRS->UE in slot order, then IRS->eve
        row-major by panel. Exact zeros anywhere in it are then redrawn,
        in position order, until none is left (channel.fill_fading).
        A Bernoulli stream draws U uniforms, one per agent in agent order;
        they are read after the decisions: agent u is satisfied iff its
        uniform is below its arm's probability;
     b. the policy block: U x 2 uniforms, row-major, one row (u1, u2) per
        agent in agent order, drawn every period whatever the policy (see
        the policy module for how the decisions read it);
     then the decisions, the link evaluation and the update, which draw
     nothing. A lanes object's draw(agents) makes a period's draws,
     stream by stream, and returns the period's decision inputs
     (policy.decision_inputs of the lane agents' policy rows). A Bernoulli
     lane's two blocks are both Generator.random, one 64-bit word per
     double, so it draws up to k periods' blocks, [U outcome | U x 2
     policy] each, in one call, in period order (BernoulliLanes, k from
     BLOCK_FLOATS): the same doubles in the same order as period by
     period, so its stream is unchanged. It makes the decision inputs of
     each block's k periods at once, each period's the ones its rows alone
     give; a channel chunk makes them per period. No draw moves for either.
So for a given seed every policy sees the same fading in every period:
bandit and greedy lanes share exact common random numbers. A lane alone
is a stream of its own, and lanes whose draws are equal by construction
draw them once, so every lane's results are those it gives when run
alone, whatever runs beside it and whatever the chunk size.

The channel environment computes, once per stream when it is built after
step 1, what every period reads: each panel's feed budget and every (panel,
eavesdropper) pair's budget and SNR factor. A (UE, candidate panel) slot's
exact hop length, budget and SNR factor are computed when a run first reads
them (ChannelLanes.links): the warm start's winners and the slots its exact
RSSI decides among, then, at the first period whose outcomes read a slot
still without them, every remaining slot of the chunk. None of it draws.
The warm start on period 1 screens every stream slot's RSSI with numpy
(squared hop lengths for the budgets, np.log10 for the gains) and takes the
exact RSSI only of the slots that may be their UE's strongest
(ChannelLanes.strongest), so it picks the slots the exact RSSI would.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import NamedTuple

import numpy as np

from . import channel, policy
from .config import SimulationConfig
from .topology import (
    NetworkTopology,
    build_network,
    candidate_slots,
    distances,
    elementwise,
)

log = logging.getLogger("irsbandit")

Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Most floats one period of a chunk's lanes may draw alone, summed over its
# lanes. A default lane draws 16 + 160 + 64 gains and 40 policy uniforms, and
# is cut on the bound 16 x (1 BS + 20 UE + 4 eve) + 40 = 440 (_period_floats),
# so about 74 default lanes share a chunk (72 in the default sweep, which
# never cuts its runs of 4 lanes on one stream); a run above the bound runs
# alone. Per-lane state (each lane's agents and reward counters) grows with
# this sum, and per-stream state (the draws, each stream slot's panel and SNR
# factor) at most with it, so the bound caps a chunk's peak memory. Lanes
# that share a stream draw and hold its state once, so the sweep's bandit
# and greedy lanes on one seed hold a fraction of it.
CHUNK_FLOATS = 2**15

# Most floats one block of a Bernoulli lane may hold: a lane of U agents
# draws k periods of 3U uniforms per call, k the most that fit, at least 1
# (BernoulliLanes). The block's decision inputs add k x U bools and k x U
# int64. At U = 200 that is k = 4, one call every four periods, and a block
# of 19 KiB plus 7 KiB of inputs, against 332 KiB for the record of a
# 200-agent, 100-period run.
BLOCK_FLOATS = 2400

# Stream slots per block of the warm start's screen, which cuts its blocks at
# UE boundaries (ChannelLanes._screened_budgets): each block's two slot-sized
# temporaries stay near 12 KiB apiece, beside the screened budgets of every
# slot. A default sweep chunk's 320 stream slots are one block; a dense_short
# chunk's 3450 or so are three, which keep the warm start about 11 KiB below
# the run's peak, set in a period's outcomes (177 KiB at seed 1). Two blocks
# (2048) stay 5 KiB below it; one block would set the peak, 17 KiB above it.
SCREEN_SLOTS = 1536


class Lane(NamedTuple):
    """One replication: cfg run on default_rng(seed).

    environment=None builds the configured network from that stream; a
    BernoulliEnvironment replaces the channel. run_lanes rejects, by field
    name, any other environment, a seed that is not a non-negative integer
    and a cfg that is not a SimulationConfig.
    """

    cfg: SimulationConfig
    seed: int
    environment: object = None


@dataclass(frozen=True)
class ReplicationResult:
    """Everything one replication produced.

    satisfaction[t] is the fraction of satisfied UEs at period t and
    mean_secrecy[t] their mean secrecy rate. chosen, satisfied and rates
    keep the full per-period, per-UE record so conservation and frequency
    checks can audit the run, and agents is the final flat agent state
    (indexing it gives one record per UE); all four are None when the lane
    ran without a record (see run_lanes). wall_seconds is the lane's share
    of its chunk's wall time.
    """

    satisfaction: np.ndarray
    mean_secrecy: np.ndarray
    chosen: np.ndarray | None
    satisfied: np.ndarray | None
    rates: np.ndarray | None
    agents: policy.Agents | None
    wall_seconds: float


@dataclass(frozen=True)
class SatisfactionTrace:
    """Per-iteration mean satisfaction aggregated over a cell's replications.

    cfg is the cell's config: its policy, case, seeds and replication and
    period counts are the trace's own. fading_blocks counts the periods'
    fading blocks, one per period of every replication.
    """

    cfg: SimulationConfig
    mean_satisfaction: np.ndarray
    ci95_halfwidth: np.ndarray
    mean_secrecy_rate: np.ndarray
    fading_blocks: int
    per_replication: np.ndarray


class ChannelEnvironment:
    """Geometry plus block fading drive satisfaction (the default).

    Everything but the fading is fixed within a replication. The
    constructor computes, in whole-array passes, what every period reads:
    each panel's feed budget (channel.feeds_db) and every (panel,
    eavesdropper) pair's budget and linear pre-fading SNR. A (UE, candidate
    panel) slot keeps only its panel and its UE's position: links(slots)
    gives the exact hop lengths and budgets of any slots, when a run first
    reads them (see ChannelLanes). The constructor draws nothing, so the
    determinism contract is unchanged.

    Slots are the agents' flat layout (topology.candidate_slots): UE u's
    k-th candidate sits at slot offsets[u] + k, and arms[s] is the panel
    index of slot s. blocks gives the sizes of one period's fading blocks:
    BS->IRS, IRS->UE (one per slot), IRS->eve. A budget that is not within
    2**1022 dB is rejected as channel.ref_loss_db, the key SimulationConfig
    names for it, so the warm start's screen never overflows (see
    ChannelLanes.strongest). An interval that holds every slot's budget,
    from the extremes of the positions, screens the bound; links decides
    every slot when the interval leaves it.
    """

    def __init__(
        self,
        topo: NetworkTopology,
        params: channel.ChannelParams,
        rate_threshold: float,
        detection_radius: float | None = None,
    ):
        self.rate_threshold = rate_threshold
        self.params = params
        self.n_agents = len(topo.ue_xy)
        self.arms, self.offsets = candidate_slots(topo, detection_radius)
        self._pxy = np.ascontiguousarray(topo.panel_xy.T)
        self._uxy = np.ascontiguousarray(topo.ue_xy.T)
        d_feed = distances(topo.cell_xy[topo.panel_cell], topo.panel_xy)
        d_eve = distances(topo.panel_xy[:, None], topo.eve_xy)
        panels = np.arange(len(topo.panel_xy))[:, None]
        # A hop's coordinates (panel minus UE) are at most the spans between
        # the panels' and the UEs' extremes, as rounding is monotone, so hypot
        # of the spans, grown by 2**-40, exceeds every hop: its log10 by more
        # than 6 ulps, which math.log10 (within 2) keeps in order. A path loss
        # so grows with its hop and is at least ref_loss_db, and every slot's
        # budget lies within [min feed - PL(far), max feed - ref_loss_db]; when
        # that leaves 2**1022 dB (or is not finite), every exact budget decides.
        spans = [max(p.max() - u.min(), u.max() - p.min()) for p, u in zip(self._pxy, self._uxy)]
        far = np.array([math.hypot(*spans) * (1.0 + 2.0**-40)])
        with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
            self._feed_db = channel.feeds_db(d_feed, params)
            eve_db = channel.budgets_db(self._feed_db, panels, d_eve, params)
            budget = np.array([
                self._feed_db.min() - channel.path_losses_db(far, params)[0],
                self._feed_db.max() - params.ref_loss_db,
            ])
            if not (abs(budget) <= 2.0**1022).all():
                budget = self.links(np.arange(len(self.arms)))[1]
        if not all((abs(b) <= 2.0**1022).all() for b in (budget, eve_db)):  # NaN fails too
            raise ValueError("channel.ref_loss_db: a link budget is not within 2**1022 dB")
        # No link's budget exceeds the interval's upper end, so no SNR factor
        # exceeds 10**x, and two Exp(1) fading gains, each below 745 (no -ln of a
        # positive double exceeds it), scale it by < 5.6e5: 10**302 * 5.6e5 is finite.
        x = (float(self._feed_db.max()) - params.ref_loss_db - params.noise_power_db) / 10.0
        if not x <= 302.0:  # NaN fails too
            raise ValueError("channel.tx_power_db: a faded SNR could overflow")
        self._eve_snr = channel.snr_factors(eve_db, params)
        self.blocks = channel.fading_blocks(len(topo.panel_xy), len(self.arms), len(topo.eve_xy))

    def links(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact hop length and budget in dB of each slot given (_links)."""
        return _links(slots, self.arms, self.offsets, self._pxy, self._uxy, self._feed_db, self.params)


def _links(slots, arms, offsets, pxy, uxy, feed_db, params) -> tuple[np.ndarray, np.ndarray]:
    """The exact hop length and budget in dB of each slot given, bit for bit
    the scalar channel formulas' (the one place they are taken per slot).

    Slot s is panel arms[s] of the UE whose segment of offsets holds it;
    pxy and uxy hold the panels' and the UEs' x row and y row, and feed_db
    each panel's feeds_db. The hop is panel minus UE, by math.hypot.
    """
    arm = arms[slots]
    ue = offsets.searchsorted(slots, side="right") - 1
    dx = pxy[0][arm]
    dx -= uxy[0][ue]
    dy = pxy[1][arm]
    dy -= uxy[1][ue]
    del ue
    hop = elementwise(math.hypot, dx, dy)
    del dx, dy  # freed before the budgets' temporaries
    return hop, channel.budgets_db(feed_db, arm, hop, params)


class BernoulliEnvironment:
    """Abstract environment: each arm satisfies with a fixed probability.

    Test hook for validating the policy chain against straight-line
    oracles. There is no geometry, so no signal context exists and the
    warm start degenerates to a uniform random arm; every agent's
    candidates are all arms. A period's outcomes are one block of uniform
    draws, one per agent in agent order, drawn before the period's policy
    block and read after its decisions; a lane draws up to k periods of
    both blocks in one call, in period order, which leaves its stream
    unchanged (see BernoulliLanes). The reported rate is 1.0 or 0.0 and
    secrecy is always 0. arm_probs is a sequence of real numbers, bools
    excluded as for n_agents.
    """

    def __init__(self, arm_probs, n_agents: int = 1):
        if isinstance(arm_probs, (str, bytes)) or not np.iterable(arm_probs):
            raise ValueError(f"arm_probs: must be a sequence of numbers, got {arm_probs!r}")
        probs = list(arm_probs)
        if not probs:
            raise ValueError("arm_probs: need at least one arm")
        for k, p in enumerate(probs):
            real = isinstance(p, numbers.Real) and not isinstance(p, bool)
            if not (real and 0.0 <= p <= 1.0):  # NaN fails the comparison too
                raise ValueError(f"arm_probs[{k}]: must be a number within [0, 1], got {p!r}")
        self.arm_probs = np.array(probs, dtype=float)
        integral = isinstance(n_agents, numbers.Integral) and not isinstance(n_agents, bool)
        if not integral or n_agents < 1:
            raise ValueError(f"n_agents: must be a positive integer, got {n_agents!r}")
        self.n_agents = n_agents
        n_arms = len(self.arm_probs)
        self.offsets = np.arange(n_agents + 1) * n_arms
        self.arms = np.tile(np.arange(n_arms, dtype=np.int64), n_agents)

    def candidate_arms(self, u: int) -> list[int]:
        return list(range(len(self.arm_probs)))


def _joined(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """The parts end to end along axis; a single part is returned as is, uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _shifted(a: np.ndarray, k: int) -> np.ndarray:
    return a + k if k else a


def _slot_layout(envs) -> tuple[list[int], np.ndarray]:
    """Each environment's first slot, and the flat offsets of their agents end to end."""
    slots = list(accumulate((len(env.arms) for env in envs), initial=0))
    parts = [env.offsets[:-1] + base for env, base in zip(envs, slots)]
    return slots, np.concatenate(parts + [slots[-1:]])


class _Layout:
    """Where each lane of a chunk sits in the concatenated agents and slots.

    envs holds one environment per stream and stream[l] names lane l's, by
    default one stream per lane in order. Lane l owns agents agents[l] to
    agents[l + 1] - 1 and slots slots[l] to slots[l + 1] - 1; offsets is
    the chunk's flat slot layout. Stream s owns rows stream_rows[s] to
    stream_rows[s + 1] - 1 of a block drawn per agent, and agent u reads
    row rows[u]; stream_offsets is the flat slot layout of the streams'
    agents end to end, and a lane agent's slot + shift[agent] is its stream
    slot. When every lane is its own stream, rows and shift are None and
    stream_offsets is offsets: the rows are the agents and the stream slots
    the lane slots.
    """

    def __init__(self, envs, stream=None):
        self.stream = range(len(envs)) if stream is None else stream
        lanes = [envs[s] for s in self.stream]
        self.agents = list(accumulate((env.n_agents for env in lanes), initial=0))
        self.slots, self.offsets = _slot_layout(lanes)
        self.arms = _joined([env.arms for env in lanes])
        self.stream_rows = list(accumulate((env.n_agents for env in envs), initial=0))
        self.stream_offsets, self.rows, self.shift = self.offsets, None, None
        if len(lanes) > len(envs):
            rows = self.stream_rows
            self.rows = np.concatenate([np.arange(rows[s], rows[s + 1]) for s in self.stream])
            stream_slots, self.stream_offsets = _slot_layout(envs)
            shift = [stream_slots[s] - lo for s, lo in zip(self.stream, self.slots)]
            self.shift = np.repeat(shift, np.diff(self.agents))


def _log2_cutoff(threshold: float) -> float:
    """The least double c with math.log2(c) >= threshold; inf when none is finite.

    math.log2 never decreases, so math.log2(x) >= threshold iff x >= c.
    """
    c = 2.0**threshold if threshold < 1024 else math.inf  # 2.0**1024 overflows
    while math.log2(c) < threshold:
        c = math.nextafter(c, math.inf)
    while math.log2(below := math.nextafter(c, 0.0)) >= threshold:
        c = below
    return c


class ChannelLanes:
    """One period of a chunk of channel lanes, in whole-chunk array passes.

    envs and rngs hold one environment and Generator per stream, and
    layout (by default one lane per stream) places the lanes on them.
    draw(agents) draws every stream's fading, then every stream's policy
    block (one (u1, u2) row per stream agent), and returns the decision
    inputs of the lane agents' rows.
    gains holds every stream's period back to back. A stream's part is its
    BS->IRS gains, panel by panel, then one IRS->UE gain per stream slot, in
    slot order, then its IRS->eve gains, row-major by panel: one draw from
    the stream's Generator, as channel.fill_fading makes it. Panels are
    numbered across the streams: stream s's panel i is chunk panel
    panel_base[s] + i, and _bs_at gives each chunk panel's BS->IRS gain.
    Slot state is per stream: every stream slot (the streams' slots end to
    end, stream s's from _stream_slots[s]) keeps its chunk panel (a lone
    stream's arms, uncopied) and its SNR factor, NaN until links computes
    it; their array is made on its first read (_factors, by links or by
    outcomes), so it is not live during the warm start's screen. Its IRS->UE
    gain needs no index: stream s's are the slice _ue_gains[s] of gains, in
    slot order, so the stream slots' gains are the slices joined (a lone
    stream's slice, uncopied), and a lane agent's is at its stream slot +
    _ue_off[agent]. A lane's agent finds its stream slot at its lane slot +
    _shift[agent] (_shift is None when every lane is its own stream). The
    streams share one channel and one rate
    threshold, as _chunks cuts chunks, so the chunk keeps the first
    stream's ChannelParams and one satisfaction cutoff (_log2_cutoff).
    Every stream's (panel, eavesdropper) pair, panel by panel, keeps its
    chunk panel, its IRS->eve gain's position and its SNR factor; a stream
    without eavesdroppers holds one pair per panel with SNR factor 0
    instead. So lanes that share a stream read the same
    gains and slot state, and the strongest eavesdropper of every chunk
    panel is one reduceat over its pairs, 0 on a panel without one.
    """

    def __init__(self, envs, rngs, layout=None):
        layout = layout or _Layout(envs)
        self.offsets, self.arms = layout.offsets, layout.arms
        self.gains = np.empty(sum(sum(env.blocks) for env in envs))
        self._draws = []
        rows = layout.stream_rows
        self._policy = np.empty((rows[-1], 2))
        self._policy_draws = [
            (rng, self._policy[lo:hi]) for rng, lo, hi in zip(rngs, rows, rows[1:])
        ]
        # the lane agents' rows, gathered from the stream rows when lanes share a stream
        self._gathered = None if layout.rows is None else np.empty((layout.agents[-1], 2))
        bs_at, ue_off, pair_panel, pair_eve, pair_snr, panel_base = [], [], [], [], [], []
        self._ue_gains = []  # each stream's IRS->UE gains, a slice of gains in slot order
        self._stream_slots = list(accumulate((len(env.arms) for env in envs), initial=0))
        b = p = 0  # the stream's first gain and first chunk panel
        for env, rng, k in zip(envs, rngs, self._stream_slots):  # k: its first stream slot
            n_bs, n_ue, n_eve = env.blocks
            self._draws.append((rng, self.gains[b : b + n_bs + n_ue + n_eve]))
            bs_at.append(b + np.arange(n_bs))
            self._ue_gains.append(self.gains[b + n_bs : b + n_bs + n_ue])
            ue_off.append(b + n_bs - k)
            snr = env._eve_snr
            if n_eve:
                pair_eve.append(b + n_bs + n_ue + np.arange(n_eve))
            else:  # one pair per panel with SNR factor 0: its panel reads 0
                snr = np.zeros((n_bs, 1))
                pair_eve.append(np.full(n_bs, b))
            pair_panel.append(p + np.arange(n_bs).repeat(snr.shape[1]))
            pair_snr.append(snr.ravel())
            panel_base.append(p)
            b += n_bs + n_ue + n_eve
            p += n_bs
        self._bs_at = np.concatenate(bs_at)
        self._pair_panel = np.concatenate(pair_panel)
        self._pair_eve = np.concatenate(pair_eve)
        self._pair_snr = _joined(pair_snr)
        # where each chunk panel's pairs start; every panel has at least one
        self._eve_start = np.flatnonzero(np.diff(self._pair_panel, prepend=-1))
        self._panel = _joined([_shifted(env.arms, q) for env, q in zip(envs, panel_base)])
        # what links reads: chunk panels' and stream agents' positions, chunk feeds
        self._pxy = _joined([env._pxy for env in envs], axis=1)
        self._uxy = _joined([env._uxy for env in envs], axis=1)
        self._feed_db = _joined([env._feed_db for env in envs])
        self._params = envs[0].params
        # a lane agent's IRS->UE gain is at its stream slot + _ue_off[agent]
        ue_off = np.repeat(ue_off, np.diff(rows))
        self._ue_off = ue_off if layout.rows is None else ue_off[layout.rows]
        self._snr = None  # made on the first read, after the warm start's screen
        self._filled = False  # set once every stream slot has its SNR factor
        self._cutoff = _log2_cutoff(envs[0].rate_threshold)
        self._stream_offsets = layout.stream_offsets
        self._rows, self._shift = layout.rows, layout.shift

    def draw(self, agents: policy.Agents) -> tuple[np.ndarray, np.ndarray]:
        """The period's draws, each stream's from its own Generator: every
        stream's fading, then every stream's policy block. Returns the
        decision inputs of the policy rows, one (u1, u2) per lane agent."""
        channel.fill_fading(self._draws, self.gains)
        for rng, out in self._policy_draws:
            rng.random(out=out)
        rows = self._policy
        if self._rows is not None:
            # "clip" (every row is in range) spares take the buffered copy of out=
            rows = np.take(rows, self._rows, axis=0, out=self._gathered, mode="clip")
        return policy.decision_inputs(agents, rows)

    def _gain(self) -> np.ndarray:
        """This period's g_bs * g_ue of every stream slot (bit for bit g_ue * g_bs)."""
        gain = self.gains[self._bs_at][self._panel]
        gain *= _joined(self._ue_gains)
        return gain

    def links(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact hop length, budget in dB and SNR factor of each stream slot
        given (_links, then channel.snr_factors); the SNR factors are kept
        for outcomes."""
        p = self._params
        hop, budget = _links(
            slots, self._panel, self._stream_offsets, self._pxy, self._uxy, self._feed_db, p
        )
        snr = channel.snr_factors(budget, p)
        self._factors()[slots] = snr
        return hop, budget, snr

    def _factors(self) -> np.ndarray:
        """The kept SNR factor of every stream slot, made as NaNs on first read."""
        if self._snr is None:
            self._snr = np.full(self._stream_slots[-1], np.nan)
        return self._snr

    def _screened_budgets(self) -> tuple[np.ndarray, float]:
        """Every stream slot's budget to within the error returned: numpy's
        squared hop lengths through channel.screened_budgets_db, in place; a
        screen that is not finite is replaced by the exact budget (links).

        The slots are screened in blocks of whole UEs: each block builds its
        squares in its own slice of the returned array and writes its
        screened budgets over them. A block ends at the last UE boundary at
        or below a multiple of SCREEN_SLOTS (one searchsorted on the offsets
        finds them all), so it holds fewer than SCREEN_SLOTS slots plus those
        of the UE it starts with. budget_error_db and the exact fix-up of
        screens that are not finite run over the whole array.
        """
        offsets = self._stream_offsets
        rows = offsets[1:] - offsets[:-1]
        cut = offsets.searchsorted(np.arange(0, offsets[-1], SCREEN_SLOTS), side="right") - 1
        cut = list(dict.fromkeys(cut.tolist())) + [len(rows)]  # cut is sorted
        (px, py), (ux, uy), feed = self._pxy, self._uxy, self._feed_db
        budget = np.empty(offsets[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(cut, cut[1:]):
                lo, hi, each = offsets[a], offsets[b], rows[a:b]
                panel = self._panel[lo:hi]
                # every panel is in range; "clip" spares take the buffered
                # copy that out= costs under the default "raise"
                square = px.take(panel, out=budget[lo:hi], mode="clip")
                square -= ux[a:b].repeat(each)
                square *= square
                dy = py.take(panel)
                dy -= uy[a:b].repeat(each)
                dy *= dy
                square += dy
                del dy
                channel.screened_budgets_db(feed, panel, square, self._params)
        odd = np.flatnonzero(~np.isfinite(budget))
        if len(odd):
            budget[odd] = self.links(odd)[1]
        return budget, channel.budget_error_db(feed, budget, self._params)

    def rssi(self, slots=None) -> np.ndarray:
        """This period's exact RSSI of every stream slot, or of the stream slots
        given: one math.log10 per slot returned, on the exact budgets of links."""
        if slots is None:
            slots = np.arange(self._stream_slots[-1])
        budget = self.links(slots)[1]
        rssi = elementwise(math.log10, self._gain()[slots])
        rssi *= 10.0
        rssi += budget
        return rssi

    def strongest(self, agents: policy.Segments) -> np.ndarray:
        """Warm start: every agent's slot of strongest RSSI, ties to the lowest slot.

        agents segments the lanes' slots; each lane agent reads its stream
        agent's argmax, the one segment_argmax(rssi()) gives. A screen
        covers every stream slot: np.log10 of its gain on its screened
        budget (_screened_budgets). Only the slots within a margin of their
        agent's screened maximum can hold its exact maximum. An agent left
        with one slot takes it; when some agent keeps more,
        rssi(kept) decides among them. Either way the winners' SNR factors
        are made exact (links). Every RSSI is finite (ChannelEnvironment
        rejects a budget that is not, and every gain is positive), so the
        margin is too, unless the budget error is.
        """
        streams = agents if self._shift is None else policy.Segments(self._stream_offsets)
        approx, error = self._screened_budgets()  # first: fewer slot arrays live at once
        gain = self._gain()
        # Margin: with u = 2**-53 and np.log10 within k ulps of math.log10
        # (k = 2 over 1M products of two Exp(1) draws, numpy 2.4 on x86-64), a
        # slot's screened RSSI fl(b' + fl(10 * np.log10 g)) and its exact
        # fl(fl(10 * log10 g) + b) differ by at most (2k + 3) * u * (A + R) + e,
        # where A and R bound |10 log10 g| and the |RSSI| over the chunk and e
        # bounds |b' - b| (channel.budget_error_db). An agent's exact maximum
        # thus screens within twice that of its approximate one; 2**-40 *
        # (A + R) + 2e covers it and the rounding of top - margin for any k
        # up to 2000 (all is 0 if A + R + e = 0).
        # Nothing overflows: budgets are within 2**1022 dB (ChannelEnvironment),
        # their screens within e < 2**986 of them and A < 3240, so R < 2**1022 +
        # 2**986 + 2A and top - margin and approx - top stay below 2**1024 in
        # magnitude; an infinite e (its W overflowing) keeps every slot.
        a = 10.0 * max(abs(math.log10(gain.min())), abs(math.log10(gain.max())))
        np.log10(gain, out=gain)
        gain *= 10.0
        approx += gain
        del gain
        margin = 2.0**-40 * (a + max(approx.max(), -approx.min())) + 2.0 * error
        top = np.maximum.reduceat(approx, streams.starts)
        top -= margin
        # approx - floor >= 0 iff approx >= floor; subtracting in place
        # frees the repeated floors before the mask is built
        approx -= np.repeat(top, streams.sizes)
        best = (approx >= 0.0).nonzero()[0]  # each agent keeps its approximate maximum
        del approx
        if len(best) > len(streams.starts):  # some agent kept more: exact RSSI decides
            within = policy.Segments(np.append(best.searchsorted(streams.starts), len(best)))
            best = best[policy.segment_argmax(self.rssi(best), within)]
        else:
            self.links(best)
        if self._shift is None:
            return best
        best = best[self._rows]
        best -= self._shift
        return best

    def outcomes(self, slot: np.ndarray, rates: bool = True, out=None):
        """Every agent's rate (None unless rates), satisfaction (written to out
        when given) and report-only secrecy.

        Satisfied iff 1 + snr reaches the cutoff. As math.log2 never decreases,
        secrecy, [log2(1 + snr) - log2(1 + the panel's strongest eve snr)]+, is
        0 unless 1 + snr exceeds 1 + eve snr, and only there takes a log2.
        The first call that reads a slot without an SNR factor fills every
        stream slot still without one, stream by stream (so the temporaries
        stay stream-sized); no later call checks.
        """
        gains = self.gains
        if self._shift is not None:
            slot = slot + self._shift  # the stream slots
        power = self._factors()[slot]  # 1 + snr * g_bs * g_ue, in place in that order
        if not self._filled and np.isnan(power).any():
            for lo, hi in zip(self._stream_slots, self._stream_slots[1:]):
                self.links(lo + np.flatnonzero(np.isnan(self._snr[lo:hi])))
            self._filled = True
            power = self._snr[slot]
        g_bs = gains[self._bs_at]
        panel = self._panel[slot]
        power *= g_bs[panel]
        power *= gains[slot + self._ue_off]
        power += 1.0
        eve = self._pair_snr * g_bs[self._pair_panel]
        eve *= gains[self._pair_eve]
        eve_power = np.maximum.reduceat(eve, self._eve_start)[panel]
        eve_power += 1.0
        del slot, panel, g_bs, eve  # freed before the logarithms
        leak = (power > eve_power).nonzero()[0]
        rate = elementwise(math.log2, power) if rates else None
        # the leaking agents' log2(1 + snr) and log2(1 + eve snr), in one call
        logs = elementwise(math.log2, np.concatenate((power[leak], eve_power[leak])))
        del eve_power
        secrecy = np.zeros(len(power))
        secrecy[leak] = logs[: len(leak)] - logs[len(leak) :]
        return rate, np.greater_equal(power, self._cutoff, out=out), secrecy


class BernoulliLanes:
    """The periods of one Bernoulli lane, drawn in blocks of up to k periods.

    env and rng are the lane's environment and Generator: a Bernoulli lane
    is a stream and a chunk of its own (_stream_key, _chunk_key). A period
    of U agents is U outcome uniforms, then U x 2 policy uniforms, both
    drawn by Generator.random, which reads one 64-bit word per double and
    keeps nothing between calls. So one call draws k periods of [U outcome
    | U x 2 policy] uniforms, one period per row in period order: the
    doubles k period-by-period calls draw, in their order, so the stream is
    unchanged. k is the most periods whose draws fit BLOCK_FLOATS, at least
    1; the last block draws only the periods left of the periods given, so
    the Generator ends where T periods leave it. A period's outcome and
    policy rows are views of the block. Each block's decision inputs are
    made once, for its k periods' rows, and draw hands out one period's.
    """

    def __init__(self, env: BernoulliEnvironment, rng, periods: int):
        self.arms, self._rng = env.arms, rng
        self._slot_prob = env.arm_probs[env.arms]  # each slot's arm probability
        n = env.n_agents
        k = int(max(1, min(periods, BLOCK_FLOATS // (3 * n))))
        self._block = np.empty((k, 3 * n))
        self._outcome = self._block[:, :n]
        self._policy = self._block[:, n:].reshape(k, n, 2)
        self._left = periods  # periods not drawn yet
        self._uniform = None  # the period's outcome uniforms, one per agent
        self._inputs = None  # the block's decision inputs, one row of each per period
        self._period = self._drawn = 0  # the next period's row; rows drawn in the block

    def draw(self, agents: policy.Agents) -> tuple[np.ndarray, np.ndarray]:
        """The period's decision inputs, one per agent; its outcome uniforms
        are kept for outcomes. A spent block is first redrawn, in one call,
        and its inputs made."""
        if self._period == self._drawn:
            self._draw_block(agents)
        t = self._period
        self._period += 1
        self._uniform = self._outcome[t]
        explore, jump = self._inputs
        return explore[t], jump[t]

    def _draw_block(self, agents: policy.Agents) -> None:
        """The next k periods, or the ones left, in one call, and their decision inputs."""
        k = min(len(self._block), self._left)
        self._left -= k
        self._rng.random(out=self._block[:k])
        self._inputs = policy.decision_inputs(agents, self._policy[:k])
        self._period, self._drawn = 0, k

    def strongest(self, agents) -> None:
        return None

    def outcomes(self, slot: np.ndarray, rates: bool = True, out=None):
        """Every agent's satisfaction, written to out when given: its uniform
        is below its arm's probability. The rate and the secrecy are None: a
        rate is the satisfied mask as 1.0 and 0.0 (the caller casts its
        record once), and the secrecy is 0 everywhere."""
        return None, np.less(self._uniform, self._slot_prob[slot], out=out), None


def _period_floats(lane: Lane) -> int:
    """Most floats one period of a channel lane may draw: its fading gains, then
    its policy block of 2 per UE.

    It counts every UE on every panel, I + I*U + I*E gains, read from the
    config, so chunks are cut before any network is built and no lane's
    set-up outlives its chunk. A Bernoulli lane joins no chunk, so its count
    decides nothing.
    """
    t = lane.cfg.topology
    cells = len(t.small_cell_offsets)
    n_panels, n_ues = cells * t.irs_per_cell, t.ue_count
    n_pairs = n_panels * cells * t.eavesdroppers_per_cell
    return n_panels * (1 + n_ues) + n_pairs + 2 * n_ues


def _chunk_key(lane: Lane):
    """What every lane of a chunk shares: a channel lane's kind, period count,
    channel and rate threshold. A Bernoulli lane's key is a new object, equal
    to no other, so the lane runs as a chunk of its own."""
    cfg = lane.cfg
    if lane.environment is not None:
        return object()
    return ChannelEnvironment, cfg.periods, cfg.channel, cfg.rate_threshold


def _chunks(lanes):
    """Cut lanes, in order, into chunks of one _chunk_key within CHUNK_FLOATS.

    Adjacent lanes on one stream are never cut apart: the cut falls before
    their run, and a run above the bound runs alone.
    """
    chunk, floats = [], 0
    for _, run in groupby(lanes, key=_stream_key):
        run = list(run)
        n = sum(map(_period_floats, run))
        if chunk and floats + n <= CHUNK_FLOATS and _chunk_key(run[0]) == _chunk_key(chunk[0]):
            chunk += run
            floats += n
            continue
        if chunk:
            yield chunk
        chunk, floats = run, n  # the run's own list: no second list outlives it
    if chunk:
        yield chunk


def _stream_key(lane: Lane):
    """What decides a lane's draws and environment; lanes with equal keys share
    them. A Bernoulli lane's key is a new object, equal to no other: the lane
    is a stream of its own."""
    cfg = lane.cfg
    if lane.environment is not None:
        return object()
    return cfg.topology, cfg.channel, cfg.rate_threshold, cfg.periods, lane.seed


def _streams(chunk: list[Lane]) -> tuple[list[Lane], list[int]]:
    """Each stream's first lane, and each lane's stream, numbered in order of first lane."""
    index, streams, stream = {}, [], []
    for lane in chunk:
        s = index.setdefault(_stream_key(lane), len(streams))
        if s == len(streams):
            streams.append(lane)
        stream.append(s)
    return streams, stream


def _size_runs(bounds: list[int], sizes: list[int]) -> list[tuple[slice, slice, int]]:
    """Runs of lanes with equal agent counts (lane l has sizes[l] agents, from
    bounds[l]), so per-lane sums are row sums: (its agents, its lanes, agents
    per lane) each, the first two as slices."""
    runs, l = [], 0
    for n, group in groupby(sizes):
        k = len(list(group))
        runs.append((slice(bounds[l], bounds[l + k]), slice(l, l + k), n))
        l += k
    return runs


def _run_chunk(chunk: list[Lane], record: bool) -> list[ReplicationResult]:
    """Run the lanes of one chunk in lock step; one result per lane."""
    start = time.perf_counter()
    streams, stream = _streams(chunk)
    rngs = [np.random.default_rng(lane.seed) for lane in streams]
    envs = [
        lane.environment
        if lane.environment is not None
        else ChannelEnvironment(
            build_network(lane.cfg.topology, rng),
            lane.cfg.channel,
            lane.cfg.rate_threshold,
            lane.cfg.topology.detection_radius,
        )
        for lane, rng in zip(streams, rngs)
    ]
    # the chunk was cut on bounds read from the configs; no network may draw more
    assert all(
        sum(env.blocks) + 2 * env.n_agents <= _period_floats(lane)
        for lane, env in zip(streams, envs)
        if lane.environment is None
    ), "a network's period draws exceed its config's bound"
    layout = _Layout(envs, stream)
    periods = chunk[0].cfg.periods
    if isinstance(envs[0], BernoulliEnvironment):
        batch = BernoulliLanes(envs[0], rngs[0], periods)
    else:
        batch = ChannelLanes(envs, rngs, layout)
    bounds = layout.agents
    agents = policy.Agents(layout.offsets, layout.arms, [lane.cfg.policy for lane in chunk], bounds)
    del envs, rngs, layout  # batch and agents hold all that is left to read

    lane_sizes = np.diff(bounds)
    runs = _size_runs(bounds, lane_sizes.tolist())
    # a lone lane's satisfied count is one count_nonzero; longer runs are row sums
    lone = [(a, run.start) for a, run, _ in runs if run.stop - run.start == 1]
    several = [(a, run, n) for a, run, n in runs if run.stop - run.start > 1]
    # per lane and period, its satisfied count and secrecy sum, made means
    # after the last period; each lane's row is C-contiguous. A Bernoulli
    # chunk's secrecy is None, so its sums stay 0
    satisfaction = np.empty((len(chunk), periods))
    mean_secrecy = np.zeros((len(chunk), periods))
    if record:
        chosen = np.empty((periods, bounds[-1]), dtype=np.int64)
        sat_record = np.empty((periods, bounds[-1]), dtype=bool)
        # a Bernoulli rate is its satisfied mask, cast once after the last period
        rates = None if isinstance(batch, BernoulliLanes) else np.empty((periods, bounds[-1]))
    for t in range(periods):
        inputs = batch.draw(agents)
        if t == 0:
            slot = policy.init_association(agents, batch.strongest(agents), inputs)
        else:
            slot = policy.select_irs(agents, inputs)
        del inputs  # freed before the outcomes, whose temporaries set a channel chunk's peak
        # with a record, the satisfied mask is written straight into its row
        out = sat_record[t] if record else None
        rate, satisfied, secrecy = batch.outcomes(slot, rates=record, out=out)
        policy.update(agents, satisfied)
        # a count of bools is exact in a double; each secrecy row sum runs the
        # add.reduce loop that sum() runs over a lane's agents alone
        for a, l in lone:
            satisfaction[l, t] = np.count_nonzero(satisfied[a])
        for a, run, n in several:
            np.add.reduce(satisfied[a].reshape(-1, n), axis=1, out=satisfaction[run, t])
        if secrecy is not None:
            for a, run, n in runs:
                np.add.reduce(secrecy[a].reshape(-1, n), axis=1, out=mean_secrecy[run, t])
        if record:
            chosen[t] = batch.arms[slot]
            if rates is not None:
                rates[t] = rate
    del batch  # the draws, freed before the rate cast
    if record and rates is None:
        rates = sat_record.astype(float)
    # sum / n in place, one rounding as in mean()
    satisfaction /= lane_sizes[:, None]
    mean_secrecy /= lane_sizes[:, None]
    wall = time.perf_counter() - start
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "chunk lanes=%d cells=%d streams=%d periods=%d: %.3f s",
            len(chunk), len({lane.cfg for lane in chunk}), len(streams), periods, wall,
        )
    results = []
    for l, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if record:  # a lone lane's columns are the whole record, not a copy
            columns = [np.ascontiguousarray(a[:, lo:hi]) for a in (chosen, sat_record, rates)]
            lane_agents = agents if len(chunk) == 1 else agents.lane(l)
        else:
            columns, lane_agents = [None] * 3, None
        results.append(
            ReplicationResult(
                satisfaction=satisfaction[l],
                mean_secrecy=mean_secrecy[l],
                chosen=columns[0],
                satisfied=columns[1],
                rates=columns[2],
                agents=lane_agents,
                wall_seconds=wall / len(chunk),
            )
        )
    return results


def _checked(lane: Lane) -> Lane:
    """lane, if the engine can run it; else a ValueError that starts with the field's name."""
    cfg, seed, env = lane
    if not isinstance(cfg, SimulationConfig):
        raise ValueError(f"cfg: must be a SimulationConfig, got {cfg!r}")
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    if env is not None and not isinstance(env, BernoulliEnvironment):
        raise ValueError(f"environment: must be None or a BernoulliEnvironment, got {env!r}")
    return lane


def run_lanes(lanes, record: bool = False) -> list[ReplicationResult]:
    """Run every Lane of lanes; one result each, in order.

    Lanes run in chunks of lanes advancing in lock step (see the module
    docstring); each lane's results are those it gives when run alone.
    Without record only the per-period series are kept: a result's chosen,
    satisfied, rates and agents are None. Each lane is checked as it enters
    (_checked), so a lane the engine cannot run raises a ValueError that
    names its field.
    """
    results = []
    for chunk in _chunks(map(_checked, lanes)):
        results.extend(_run_chunk(chunk, record))
    return results


def run_replication(
    cfg: SimulationConfig, seed: int, environment=None
) -> ReplicationResult:
    """One seeded replication, with its full record: a one-lane run_lanes call.

    With environment=None the scenario is the configured network; a
    BernoulliEnvironment replaces the channel while keeping the policy loop
    identical.
    """
    return run_lanes([Lane(cfg, seed, environment)], record=True)[0]


def _aggregate(cfg: SimulationConfig, results) -> SatisfactionTrace:
    n_rep = len(results)
    per_rep = np.empty((n_rep, cfg.periods))
    per_rep_secrecy = np.empty((n_rep, cfg.periods))
    for i, res in enumerate(results):
        per_rep[i] = res.satisfaction
        per_rep_secrecy[i] = res.mean_secrecy
    mean = per_rep.mean(axis=0)
    if n_rep > 1:
        halfwidth = Z95 * per_rep.std(axis=0, ddof=1) / math.sqrt(n_rep)
    else:
        halfwidth = np.zeros_like(mean)
    return SatisfactionTrace(
        cfg=cfg,
        mean_satisfaction=mean,
        ci95_halfwidth=halfwidth,
        mean_secrecy_rate=per_rep_secrecy.mean(axis=0),
        fading_blocks=cfg.periods * n_rep,
        per_replication=per_rep,
    )


def run_cells(cfgs) -> list[tuple[SatisfactionTrace, float]]:
    """Every cell's trace and wall seconds, all replications of all cells run as lanes.

    Cell c's replication i is the lane (cfgs[c], cfgs[c].base_seed + i).
    The lanes run replication-major, replication i of every cell and then
    replication i + 1, and within a replication the cells sharing a stream
    (cells on one seed range that differ only in policy) run side by side,
    in order of their first cell, so no chunk cut falls between them.
    A cell's wall seconds are its lanes' shares of their chunks' wall time.
    Every cfg is checked, as a lane's is (_checked), before any is read.
    """
    cfgs = [_checked(Lane(cfg, 0)).cfg for cfg in cfgs]
    depth = max((cfg.replications for cfg in cfgs), default=0)
    by_stream = {}  # the stream key of a cell's first lane -> its cells, in order
    for c, cfg in enumerate(cfgs):
        by_stream.setdefault(_stream_key(Lane(cfg, cfg.base_seed)), []).append(c)
    cells = [c for run in by_stream.values() for c in run]
    order = [(c, i) for i in range(depth) for c in cells if i < cfgs[c].replications]
    results = run_lanes(Lane(cfgs[c], cfgs[c].base_seed + i) for c, i in order)
    mine = [[] for _ in cfgs]
    for (c, _), res in zip(order, results):
        mine[c].append(res)
    return [
        (_aggregate(cfg, res), sum(r.wall_seconds for r in res)) for cfg, res in zip(cfgs, mine)
    ]


def run_monte_carlo(cfg: SimulationConfig) -> SatisfactionTrace:
    """Aggregate `replications` independent replications.

    Replication i runs with seed base_seed + i. The trace carries the
    per-iteration mean and a 95% normal-approximation half-width across
    replications (zero when there is a single replication), plus the full
    per-replication matrix for downstream statistics. The replications run
    as lanes (see run_cells) that keep no per-UE record.
    """
    return run_cells([cfg])[0][0]
