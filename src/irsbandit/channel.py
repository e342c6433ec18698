"""Block-fading link model.

Log-distance path loss per segment, Rayleigh power fading (Exp(1) gains),
and the cascaded BS -> IRS -> UE budget. The direct BS -> UE link is in deep
fade and carries nothing, so only cascaded links exist. All functions are
pure; randomness enters only through an explicit Generator.

The scalar functions state each formula for one link. path_losses_db,
budgets_db and snr_factors apply the same formulas to whole arrays of hop
lengths, in the same operation order, with log10 and pow taken element by
element from math (topology.elementwise), so every element matches the
scalar result bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ChannelParams
from .topology import NetworkTopology, Position, elementwise

# below this the log-distance law is clamped to the reference distance
MIN_PATH_DISTANCE_M = 1.0


def path_loss_db(d: float, n: float, ref_loss_db: float) -> float:
    """Log-distance path loss: ref_loss_db + 10 * n * log10(d), d >= 1 m.

    Distances below 1 m are clamped to the reference distance.
    """
    d = max(d, MIN_PATH_DISTANCE_M)
    return ref_loss_db + 10.0 * n * math.log10(d)


def path_losses_db(d: np.ndarray, p: ChannelParams) -> np.ndarray:
    """path_loss_db of every distance in an array, with p's exponent and reference loss."""
    log_d = elementwise(math.log10, np.maximum(d, MIN_PATH_DISTANCE_M))
    return p.ref_loss_db + 10.0 * p.pathloss_exponent * log_d


def sample_fading(rng: np.random.Generator) -> float:
    """One Rayleigh power gain: a positive Exp(1) draw from a size-1 fading block."""
    return float(_fading_matrix(rng, (1,))[0])


def _fading_matrix(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    g = rng.exponential(size=shape)
    while not g.all():  # redraw exact zeros; almost never taken
        zero = g == 0.0
        g[zero] = rng.exponential(size=int(zero.sum()))
    return g


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw of every link's power gain.

    g_bs_irs[i] covers the serving-BS leg of panel i and is shared by all
    receivers behind that panel; g_irs_ue[i, u] and g_irs_eve[i, e] cover
    the reflected legs.
    """

    g_bs_irs: np.ndarray
    g_irs_ue: np.ndarray
    g_irs_eve: np.ndarray


def draw_realization(
    topo: NetworkTopology, rng: np.random.Generator
) -> ChannelRealization:
    """Draw all link gains for one association period (one fading block).

    Draw order is part of the determinism contract: BS->IRS first, then
    IRS->UE, then IRS->eavesdropper.
    """
    n_irs = len(topo.irs_panels)
    n_ue = len(topo.ues)
    n_eve = len(topo.eavesdroppers)
    return ChannelRealization(
        g_bs_irs=_fading_matrix(rng, (n_irs,)),
        g_irs_ue=_fading_matrix(rng, (n_irs, n_ue)),
        g_irs_eve=_fading_matrix(rng, (n_irs, n_eve)),
    )


def feed_db(d_bs_irs: float, p: ChannelParams) -> float:
    """Budget up to a panel, in dB: tx power plus panel gain minus the BS -> IRS loss.

    It is the same for every receiver behind the panel.
    """
    pl_bs = path_loss_db(d_bs_irs, p.pathloss_exponent, p.ref_loss_db)
    return p.tx_power_db + p.irs_gain_db - pl_bs


def budget_db(feed: float, d_irs_rx: float, p: ChannelParams) -> float:
    """Two-hop budget, in dB: a panel's feed_db minus the IRS -> receiver loss."""
    return feed - path_loss_db(d_irs_rx, p.pathloss_exponent, p.ref_loss_db)


def _cascade_budget_db(
    bs: Position, irs: Position, receiver: Position, p: ChannelParams
) -> float:
    """Deterministic part of the two-hop budget, in dB."""
    return budget_db(feed_db(bs.distance_to(irs), p), irs.distance_to(receiver), p)


def budgets_db(
    d_bs_irs: np.ndarray, panel: np.ndarray, d_irs_rx: np.ndarray, p: ChannelParams
) -> np.ndarray:
    """budget_db(feed_db(d_bs_irs[panel], p), d_irs_rx, p) over arrays.

    d_bs_irs holds each panel's BS -> IRS hop; panel (broadcast against
    d_irs_rx) names the panel of each receiver's IRS -> receiver hop.
    """
    feed = p.tx_power_db + p.irs_gain_db - path_losses_db(d_bs_irs, p)
    return feed[panel] - path_losses_db(d_irs_rx, p)


def snr_factor(budget: float, p: ChannelParams) -> float:
    """Pre-fading linear SNR of a two-hop budget in dB: 10^((budget - noise)/10).

    cascaded_snr is this factor times the two fading gains.
    """
    return 10.0 ** ((budget - p.noise_power_db) / 10.0)


def snr_factors(budget: np.ndarray, p: ChannelParams) -> np.ndarray:
    """snr_factor of every budget in an array."""
    return elementwise(functools.partial(pow, 10.0), (budget - p.noise_power_db) / 10.0)


def cascaded_snr(
    bs: Position,
    irs: Position,
    ue: Position,
    g_bs_irs: float,
    g_irs_ue: float,
    p: ChannelParams,
) -> float:
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


def rssi_db(
    bs: Position,
    irs: Position,
    ue: Position,
    g_bs_irs: float,
    g_irs_ue: float,
    p: ChannelParams,
) -> float:
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
