"""Block-fading link model.

Log-distance path loss per segment, Rayleigh power fading (Exp(1) gains),
and the cascaded BS -> IRS -> UE budget. The direct BS -> UE link is in deep
fade and carries nothing, so only cascaded links exist. All functions are
pure; randomness enters only through an explicit Generator.

path_losses_db, budgets_db and snr_factors apply the link formulas to
whole arrays of hop lengths, with log10 and pow taken element by element
from math (topology.elementwise), so every element matches the one-link
formula evaluated in Python floats bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ChannelParams
from .topology import NetworkTopology, elementwise

# below this the log-distance law is clamped to the reference distance
MIN_PATH_DISTANCE_M = 1.0


def path_losses_db(d: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Path loss ref_loss_db + 10 * n * log10(d) of every distance d, clamped to d >= 1 m."""
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
    n_irs = len(topo.panel_xy)
    return ChannelRealization(
        g_bs_irs=_fading_matrix(rng, (n_irs,)),
        g_irs_ue=_fading_matrix(rng, (n_irs, len(topo.ue_xy))),
        g_irs_eve=_fading_matrix(rng, (n_irs, len(topo.eve_xy))),
    )


def budgets_db(
    d_bs_irs: np.ndarray, panel: np.ndarray, d_irs_rx: np.ndarray, p: ChannelParams
) -> np.ndarray:
    """Two-hop budgets in dB: tx + irs_gain - PL(d_bs_irs[panel]) - PL(d_irs_rx).

    d_bs_irs holds each panel's BS -> IRS hop; panel (broadcast against
    d_irs_rx) names the panel of each receiver's IRS -> receiver hop.
    """
    feed = p.tx_power_db + p.irs_gain_db - path_losses_db(d_bs_irs, p)
    return feed[panel] - path_losses_db(d_irs_rx, p)


def snr_factors(budget: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Pre-fading linear SNR of every budget: 10^((budget - noise)/10), to scale by g1 * g2."""
    return elementwise(functools.partial(pow, 10.0), (budget - p.noise_power_db) / 10.0)
