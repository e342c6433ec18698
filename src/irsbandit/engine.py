"""Monte-Carlo simulation loop.

A lane is one replication: a (config, seed) pair, optionally with its own
environment. Each lane owns its agents and draws from default_rng(seed).
The replications of a cell are lanes with seeds base_seed + i and
aggregate by plain averaging, so their order never matters.

Lanes run in lock step, in chunks. The lanes of a chunk advance period by
period together, their slots and agents concatenated into one flat layout
(policy.Agents), so every step after the draws (the RSSI and its argmax,
the decisions, link evaluation with its logarithms, the reward update)
runs once per chunk rather than once per lane. Chunks are cut in lane
order: a chunk holds lanes of one environment kind and one period count
whose per-period draws total at most CHUNK_FLOATS floats. A run of adjacent
lanes on one stream is never cut apart, and a run larger than the bound
runs alone.

Within a chunk, lanes whose draws and environment are equal by
construction form one stream: channel lanes with equal topology, channel
parameters, rate threshold, period count and seed, or plug-in lanes with
the same environment object, period count and seed. Lanes in one stream
differ only in policy, and the policy draws nothing, so the stream's
Generator, network, fading, policy block and slot state are made once and
every lane of the stream reads them.

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
     nothing.
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
# this sum, and per-stream state (the draws, each stream slot's panel, SNR
# factor and gain position) at most with it, so the bound caps a chunk's
# peak memory. Lanes that share a stream draw and hold its state once, so
# the sweep's bandit and greedy lanes on one seed hold a fraction of it.
CHUNK_FLOATS = 2**15


class Lane(NamedTuple):
    """One replication: cfg run on default_rng(seed).

    environment=None builds the configured network from that stream; an
    environment (e.g. BernoulliEnvironment) replaces the channel.
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
        # No link's budget exceeds the interval's upper end, and 10**x is finite
        # below x = log10 of the largest double (308.2547...), so no SNR factor
        # overflows when that end's does not.
        x = (float(self._feed_db.max()) - params.ref_loss_db - params.noise_power_db) / 10.0
        if not x < 308.25:  # NaN fails too
            raise ValueError("channel.tx_power_db: a linear SNR factor overflows")
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


class _SlotParams(NamedTuple):
    """The channel parameters links reads, one value per slot."""

    pathloss_exponent: np.ndarray
    ref_loss_db: np.ndarray
    noise_power_db: np.ndarray


class BernoulliEnvironment:
    """Abstract plug-in: each arm satisfies with a fixed probability.

    Test hook for validating the policy chain against straight-line
    oracles. There is no geometry, so no signal context exists and the
    warm start degenerates to a uniform random arm; every agent's
    candidates are all arms. A period's outcomes are one block of uniform
    draws, one per agent in agent order, drawn at the start of the period
    and read after its decisions. The reported rate is 1.0 or 0.0 and
    secrecy is always 0.
    """

    def __init__(self, arm_probs, n_agents: int = 1):
        self.arm_probs = np.fromiter(arm_probs, dtype=float)
        if not len(self.arm_probs):
            raise ValueError("arm_probs: need at least one arm")
        for k, p in enumerate(self.arm_probs.tolist()):
            if not 0.0 <= p <= 1.0:  # NaN fails the comparison too
                raise ValueError(f"arm_probs[{k}]: must be within [0, 1], got {p!r}")
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
    gains holds every stream's period back to back. A stream's part is its
    BS->IRS gains, panel by panel, then one IRS->UE gain per stream slot, in
    slot order, then its IRS->eve gains, row-major by panel: one draw from
    the stream's Generator, as channel.fill_fading makes it. Panels are
    numbered across the streams: stream s's panel i is chunk panel
    panel_base[s] + i, and _bs_at gives each chunk panel's BS->IRS gain.
    Slot state is per stream: every stream slot (the streams' slots end to
    end, stream s's from _stream_slots[s]) keeps its chunk panel (a lone
    stream's arms, uncopied), the position of its IRS->UE gain (_ue_at) and
    its SNR factor, NaN until links computes it. A lane's agent finds its
    stream slot at its lane slot + _shift[agent] (_shift is None when every
    lane is its own stream). Every agent keeps its lane's satisfaction
    cutoff (_log2_cutoff). Every stream's (panel, eavesdropper) pair, panel
    by panel, keeps its chunk panel, its IRS->eve gain's position and its
    SNR factor; a stream without eavesdroppers holds one pair per panel
    with SNR factor 0 instead. So lanes that share a stream read the same
    gains and slot state, and the strongest eavesdropper of every chunk
    panel is one reduceat over its pairs, 0 on a panel without one.
    """

    def __init__(self, envs, rngs, layout=None):
        layout = layout or _Layout(envs)
        self.offsets, self.arms = layout.offsets, layout.arms
        self.gains = np.empty(sum(sum(env.blocks) for env in envs))
        self._draws = []
        bs_at, ue_at, pair_panel, pair_eve, pair_snr, panel_base = [], [], [], [], [], []
        b = p = 0  # the stream's first gain and first chunk panel
        for env, rng in zip(envs, rngs):
            n_bs, n_ue, n_eve = env.blocks
            self._draws.append((rng, self.gains[b : b + n_bs + n_ue + n_eve]))
            bs_at.append(b + np.arange(n_bs))
            ue_at.append(b + n_bs + np.arange(n_ue))
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
        self._ue_at = np.concatenate(ue_at)
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
        self._params = [env.params for env in envs]
        # one row per field of _SlotParams, one column per stream
        self._columns = np.array([[getattr(p, f) for p in self._params] for f in _SlotParams._fields])
        self._stream_slots = np.fromiter(
            accumulate((len(env.arms) for env in envs), initial=0), np.int64, len(envs) + 1
        )
        self._snr = np.full(self._stream_slots[-1], np.nan)
        self._filled = False  # set once every stream slot has its SNR factor
        cutoffs = [_log2_cutoff(env.rate_threshold) for env in envs]
        self._cutoff = np.repeat([cutoffs[s] for s in layout.stream], np.diff(layout.agents))
        self._stream_offsets = layout.stream_offsets
        self._rows, self._shift = layout.rows, layout.shift

    def draw(self) -> None:
        """Every stream's fading for the period, each from its own Generator."""
        channel.fill_fading(self._draws, self.gains)

    def _gain(self) -> np.ndarray:
        """This period's g_bs * g_ue of every stream slot."""
        gain = self.gains[self._ue_at]
        gain *= self.gains[self._bs_at][self._panel]
        return gain

    def links(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact hop length, budget in dB and SNR factor of each stream slot
        given (_links, then channel.snr_factors, each slot on its stream's
        channel parameters); the SNR factors are kept for outcomes."""
        stream = self._stream_slots.searchsorted(slots, side="right") - 1
        p = _SlotParams(*self._columns[:, stream])
        hop, budget = _links(
            slots, self._panel, self._stream_offsets, self._pxy, self._uxy, self._feed_db, p
        )
        snr = channel.snr_factors(budget, p)
        self._snr[slots] = snr
        return hop, budget, snr

    def _screened_budgets(self) -> tuple[np.ndarray, float]:
        """Every stream slot's budget to within the error returned: numpy's
        squared hop lengths through channel.screened_budgets_db, in place; a
        screen that is not finite is replaced by the exact budget (links)."""
        offsets = self._stream_offsets
        rows = offsets[1:] - offsets[:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            square = self._pxy[0].take(self._panel)
            square -= self._uxy[0].repeat(rows)
            square *= square
            dy = self._pxy[1].take(self._panel)
            dy -= self._uxy[1].repeat(rows)
            dy *= dy
            square += dy
            del dy
            budget = channel.screened_budgets_db(
                self._feed_db, self._panel, square, self._params, self._stream_slots
            )
        odd = np.flatnonzero(~np.isfinite(budget))
        if len(odd):
            budget[odd] = self.links(odd)[1]
        return budget, channel.budget_error_db(self._feed_db, budget, self._params)

    def rssi(self, slots=None) -> np.ndarray:
        """This period's exact RSSI of every stream slot, or of the stream slots
        given: one math.log10 per slot returned, on the exact budgets of links."""
        if slots is None:
            slots = np.arange(len(self._snr))
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
        # bounds |b' - b| (channel.budget_error_db, the largest of the
        # streams'). An agent's exact maximum thus screens within twice that of
        # its approximate one; 2**-40 * (A + R) + 2e covers it and the rounding
        # of top - margin for any k up to 2000 (all is 0 if A + R + e = 0).
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

    def outcomes(self, slot: np.ndarray, rates: bool = True):
        """Every agent's rate (None unless rates), satisfaction and report-only secrecy.

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
        power = self._snr[slot]  # 1 + snr * g_bs * g_ue, in place in that order
        if not self._filled and np.isnan(power).any():
            for p, lo, hi in zip(self._params, self._stream_slots, self._stream_slots[1:]):
                rest = lo + np.flatnonzero(np.isnan(self._snr[lo:hi]))
                budget = _links(
                    rest, self._panel, self._stream_offsets, self._pxy, self._uxy, self._feed_db, p
                )[1]
                self._snr[rest] = channel.snr_factors(budget, p)
                del rest, budget  # freed before the next stream's
            self._filled = True
            power = self._snr[slot]
        g_bs = gains[self._bs_at]
        panel = self._panel[slot]
        power *= g_bs[panel]
        power *= gains[self._ue_at[slot]]
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
        return rate, power >= self._cutoff, secrecy


class BernoulliLanes:
    """One period of a chunk of Bernoulli lanes: one block of outcome uniforms per stream.

    envs, rngs and layout are as for ChannelLanes; each lane's agents read
    their stream's uniforms through the layout's rows.
    """

    def __init__(self, envs, rngs, layout=None):
        layout = layout or _Layout(envs)
        self.offsets, self.arms, self._rows = layout.offsets, layout.arms, layout.rows
        arm_base = list(accumulate((len(env.arm_probs) for env in envs), initial=0))
        self._arm = _joined([_shifted(envs[s].arms, arm_base[s]) for s in layout.stream])
        self._probs = _joined([env.arm_probs for env in envs])
        rows = layout.stream_rows
        self._uniform = np.empty(rows[-1])
        self._draws = [(rng, self._uniform[lo:hi]) for rng, lo, hi in zip(rngs, rows, rows[1:])]

    def draw(self) -> None:
        """Every stream's outcome uniforms for the period, each from its own Generator."""
        for rng, out in self._draws:
            rng.random(out=out)

    def strongest(self, agents) -> None:
        return None

    def outcomes(self, slot: np.ndarray, rates: bool = True):
        uniform = self._uniform if self._rows is None else self._uniform[self._rows]
        satisfied = uniform < self._probs[self._arm[slot]]
        return satisfied.astype(float) if rates else None, satisfied, np.zeros(len(slot))


_LANES = {ChannelEnvironment: ChannelLanes, BernoulliEnvironment: BernoulliLanes}


def _kind(lane: Lane) -> type:
    return ChannelEnvironment if lane.environment is None else type(lane.environment)


def _period_floats(lane: Lane) -> int:
    """Most floats one period of the lane may draw: its environment block
    (fading gains, or outcome uniforms), then its policy block of 2 per agent.

    A channel lane counts every UE on every panel, I + I*U + I*E gains, read
    from the config (or alike from its own ChannelEnvironment), so chunks are
    cut before any network is built and no lane's set-up outlives its chunk.
    """
    env = lane.environment
    if env is None:
        t = lane.cfg.topology
        cells = len(t.small_cell_offsets)
        n_panels, n_ues = cells * t.irs_per_cell, t.ue_count
        n_pairs = n_panels * cells * t.eavesdroppers_per_cell
    elif isinstance(env, ChannelEnvironment):
        (n_panels, _, n_pairs), n_ues = env.blocks, env.n_agents
    else:
        return 3 * env.n_agents
    return n_panels * (1 + n_ues) + n_pairs + 2 * n_ues


def _chunks(lanes):
    """Cut lanes, in order, into chunks of one kind and period count within CHUNK_FLOATS.

    Adjacent lanes on one stream are never cut apart: the cut falls before
    their run, and a run above the bound runs alone.
    """
    chunk, floats = [], 0
    for _, run in groupby(lanes, key=_stream_key):
        run = list(run)
        n = sum(map(_period_floats, run))
        if chunk and (
            floats + n <= CHUNK_FLOATS
            and _kind(run[0]) is _kind(chunk[0])
            and run[0].cfg.periods == chunk[0].cfg.periods
        ):
            chunk += run
            floats += n
            continue
        if chunk:
            yield chunk
        chunk, floats = run, n  # the run's own list: no second list outlives it
    if chunk:
        yield chunk


def _stream_key(lane: Lane):
    """What decides a lane's draws and environment; lanes with equal keys share them."""
    cfg = lane.cfg
    if lane.environment is not None:
        return lane.environment, cfg.periods, lane.seed
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
    batch = _LANES[type(envs[0])](envs, rngs, layout)
    bounds, rows, stream_rows = layout.agents, layout.rows, layout.stream_rows
    agents = policy.Agents(layout.offsets, layout.arms, [lane.cfg.policy for lane in chunk], bounds)
    del envs, layout  # batch and agents hold all that is left to read

    lane_sizes = np.diff(bounds)
    runs = _size_runs(bounds, lane_sizes.tolist())
    # the policy block: one (u1, u2) row per stream agent, each stream's rows
    # from its Generator; the agents read it through rows
    drawn = np.empty((stream_rows[-1], 2))
    uniform = drawn if rows is None else np.empty((bounds[-1], 2))
    policy_draws = [
        (rng, drawn[lo:hi]) for rng, lo, hi in zip(rngs, stream_rows, stream_rows[1:])
    ]
    periods = chunk[0].cfg.periods
    # per lane and period, its satisfied count and secrecy sum, made means
    # after the last period; each lane's row is C-contiguous
    satisfaction = np.empty((len(chunk), periods))
    mean_secrecy = np.empty((len(chunk), periods))
    if record:
        chosen = np.empty((periods, bounds[-1]), dtype=np.int64)
        sat_record = np.empty((periods, bounds[-1]), dtype=bool)
        rates = np.empty((periods, bounds[-1]))
    for t in range(periods):
        batch.draw()
        for rng, out in policy_draws:
            rng.random(out=out)
        if rows is not None:
            np.take(drawn, rows, axis=0, out=uniform)
        if t == 0:
            slot = policy.init_association(agents, batch.strongest(agents), uniform)
        else:
            slot = policy.select_irs(agents, uniform)
        rate, satisfied, secrecy = batch.outcomes(slot, rates=record)
        policy.update(agents, satisfied)
        # row sums, each through the add.reduce loop sum() runs over a lane's
        # agents alone; a count of bools is exact in a double
        for a, run, n in runs:
            np.add.reduce(satisfied[a].reshape(-1, n), axis=1, out=satisfaction[run, t])
            np.add.reduce(secrecy[a].reshape(-1, n), axis=1, out=mean_secrecy[run, t])
        if record:
            chosen[t] = batch.arms[slot]
            sat_record[t] = satisfied
            rates[t] = rate
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


def run_lanes(lanes, record: bool = False) -> list[ReplicationResult]:
    """Run every Lane of lanes; one result each, in order.

    Lanes run in chunks of lanes advancing in lock step (see the module
    docstring); each lane's results are those it gives when run alone.
    Without record only the per-period series are kept: a result's chosen,
    satisfied, rates and agents are None.
    """
    results = []
    for chunk in _chunks(lanes):
        results.extend(_run_chunk(chunk, record))
    return results


def run_replication(
    cfg: SimulationConfig, seed: int, environment=None
) -> ReplicationResult:
    """One seeded replication, with its full record: a one-lane run_lanes call.

    With environment=None the scenario is the configured network; passing
    an environment (e.g. BernoulliEnvironment) replaces the channel while
    keeping the policy loop identical.
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
    """
    cfgs = list(cfgs)
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
