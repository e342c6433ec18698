"""Block-fading link model.

Log-distance path loss per segment, Rayleigh power fading (Exp(1) gains),
and the cascaded BS -> IRS -> UE budget. The direct BS -> UE link is in deep
fade and carries nothing, so only cascaded links exist. All functions are
pure; randomness enters only through an explicit Generator.

path_losses_db, feeds_db, budgets_db and snr_factors apply the link
formulas to whole arrays of hop lengths, with log10 (through
topology.elementwise) and pow taken element by element from math, so every
element matches the one-link formula evaluated in Python floats bit for
bit. screened_budgets_db gives approximate budgets, in numpy ufuncs alone,
for decisions screened within budget_error_db of them.
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
    loss = elementwise(math.log10, np.maximum(d, MIN_PATH_DISTANCE_M))
    loss *= 10.0 * p.pathloss_exponent  # in place, rounded as the scalar formula
    loss += p.ref_loss_db
    return loss


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


def feeds_db(d_bs_irs: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Budget up to each panel, in dB: tx + irs_gain - PL(d_bs_irs), one per BS -> IRS hop."""
    return p.tx_power_db + p.irs_gain_db - path_losses_db(d_bs_irs, p)


def budgets_db(
    feed: np.ndarray, panel: np.ndarray, d_irs_rx: np.ndarray, p: ChannelParams
) -> np.ndarray:
    """Two-hop budgets in dB: feed[panel] - PL(d_irs_rx).

    feed holds each panel's feeds_db; panel (broadcast against d_irs_rx)
    names the panel of each receiver's IRS -> receiver hop.
    """
    return feed[panel] - path_losses_db(d_irs_rx, p)


def screened_budgets_db(
    feed: np.ndarray, panel: np.ndarray, square: np.ndarray, p: ChannelParams
) -> np.ndarray:
    """budgets_db's formula on hop lengths np.sqrt(square), with np.log10 for
    math.log10. Each budget lies within budget_error_db of the exact one
    wherever it is finite. square, the squared hop lengths, is overwritten
    with the budgets and returned."""
    np.sqrt(square, out=square)
    np.maximum(square, MIN_PATH_DISTANCE_M, out=square)
    np.log10(square, out=square)
    square *= 10.0 * p.pathloss_exponent
    square += p.ref_loss_db
    return np.subtract(feed.take(panel), square, out=square)


def budget_error_db(feed: np.ndarray, budget: np.ndarray, p: ChannelParams) -> float:
    """A bound on |b' - b| for finite screened budgets b' (budget) of finite
    exact ones b on channel p.

    With u = 2**-53, c = 10 * pathloss_exponent, hypot and math.log10
    within an ulp and np.log10 within k ulps: the screened hop length
    sqrt(fl(dx*dx + dy*dy)) is within 6u of hypot(dx, dy) (an underflowed
    square is below 1 m, where both clamp), so the logarithms of the
    clamped hops differ by at most 3u + 2(k + 1)u L, L their size;
    multiplied by c and carried through the adds, with |c L| bounded by
    |ref_loss_db| + |feed| + |b'|, |b' - b| stays below (2k + 8)u W, where
    W = c + |ref_loss_db| + max |feed| + max |b'|. 2**-40 W covers it for
    any k up to 4000 (k = 2 for np.log10 against math.log10 over 1M
    products of two Exp(1) draws, numpy 2.4 on x86-64). W may overflow to
    inf, a bound that screens nothing out; every term is finite otherwise.
    """
    top = max(feed.max(), -feed.min()) + max(budget.max(), -budget.min())
    return 2.0**-40 * (10.0 * p.pathloss_exponent + abs(p.ref_loss_db) + top)


def snr_factors(budget: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Pre-fading linear SNR of every budget: 10^((budget - noise)/10), to scale by g1 * g2.

    math.pow is mapped over a repeated base, with no call layer between; it
    gives the bits of 10.0 ** x wherever that is finite, and SimulationConfig and
    ChannelEnvironment reject (as channel.tx_power_db) any factor that could overflow.
    """
    x = budget - p.noise_power_db
    x /= 10.0
    out = np.fromiter(map(math.pow, itertools.repeat(10.0), x.ravel().data), float, x.size)
    return out if x.ndim == 1 else out.reshape(x.shape)
