"""Block-fading link model.

Log-distance path loss per segment, Rayleigh power fading (Exp(1) gains),
and the cascaded BS -> IRS -> UE budget. The direct BS -> UE link is in deep
fade and carries nothing, so only cascaded links exist. All functions are
pure; randomness enters only through an explicit Generator.

path_losses_db, budgets_db and snr_factors apply the link formulas to
whole arrays of hop lengths, with log10 (through topology.elementwise) and
pow taken element by element from math, so every element matches the
one-link formula evaluated in Python floats bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import ChannelParams
from .topology import elementwise

# below this the log-distance law is clamped to the reference distance
MIN_PATH_DISTANCE_M = 1.0


def path_losses_db(d: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Path loss ref_loss_db + 10 * n * log10(d) of every distance d, clamped to d >= 1 m."""
    log_d = elementwise(math.log10, np.maximum(d, MIN_PATH_DISTANCE_M))
    return p.ref_loss_db + 10.0 * p.pathloss_exponent * log_d


def fill_fading(draws, gains: np.ndarray) -> np.ndarray:
    """One period's fading for each (rng, out) of draws; returns gains.

    Every out is a 1-D view into gains, filled with Exp(1) power gains by
    one draw call on its own Generator. A single check over gains spots
    exact zeros, which almost never occur; each out holding one then
    redraws its zeros from its own Generator, in position order, until
    none is left.
    """
    for rng, out in draws:
        rng.standard_exponential(out=out)
    if not gains.all():
        for rng, out in draws:
            while not out.all():
                zero = out == 0.0
                out[zero] = rng.standard_exponential(np.count_nonzero(zero))
    return gains


def fading_blocks(n_panels: int, n_slots: int, n_eves: int) -> tuple[int, int, int]:
    """Sizes of one period's fading blocks, in draw order: BS->IRS, IRS->UE, IRS->eve."""
    return n_panels, n_slots, n_panels * n_eves


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
    """Pre-fading linear SNR of every budget: 10^((budget - noise)/10), to scale by g1 * g2.

    math.pow is mapped over a repeated base, with no call layer between; it
    gives the bits of 10.0 ** x wherever that is finite, and SimulationConfig
    rejects (as channel.tx_power_db) any channel whose factor could overflow.
    """
    x = (budget - p.noise_power_db) / 10.0
    out = np.fromiter(map(math.pow, itertools.repeat(10.0), x.ravel().data), float, x.size)
    return out if x.ndim == 1 else out.reshape(x.shape)
