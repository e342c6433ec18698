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


def sample_fading(rng: np.random.Generator) -> float:
    """One Rayleigh power gain: a positive Exp(1) draw from a size-1 fading block."""
    return float(_fading_matrix(rng, (1,))[0])


def _fading_matrix(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    g = rng.exponential(size=shape)
    while not g.all():  # redraw exact zeros; almost never taken
        zero = g == 0.0
        g[zero] = rng.exponential(size=int(zero.sum()))
    return g


class _Replay:
    """Generator stand-in: serves already drawn Exp(1) variates, then continues rng.

    A Generator's exponentials form one sequence however the draws are
    split into calls, so replaying the drawn ones first and drawing only
    the shortfall reproduces the stream of separate calls exactly.
    """

    def __init__(self, drawn: np.ndarray, rng: np.random.Generator):
        self._drawn = drawn
        self._rng = rng

    def exponential(self, size):
        n = math.prod(size) if isinstance(size, tuple) else size
        head, self._drawn = self._drawn[:n], self._drawn[n:]
        tail = self._rng.standard_exponential(n - len(head))
        return np.concatenate([head, tail]).reshape(size)


def fill_fading(draws, gains: np.ndarray) -> np.ndarray:
    """One period's fading for each (rng, out, blocks) of draws; returns gains.

    Every out is a 1-D view into gains, filled with consecutive fading
    blocks of the sizes in blocks, from its own Generator. The result and
    the stream each Generator is left at are those of one _fading_matrix
    call per block, in order, each redrawing its exact zeros before the
    next block starts. When no zero is drawn, which is almost always, that
    is one draw call per Generator and a single zero check over gains.
    """
    for rng, out, _ in draws:
        rng.standard_exponential(out=out)
    if not gains.all():
        for rng, out, blocks in draws:
            if not out.all():
                replay = _Replay(out.copy(), rng)
                pos = 0
                for n in blocks:
                    out[pos : pos + n] = _fading_matrix(replay, (n,))
                    pos += n
    return gains


def fading_blocks(n_panels: int, n_ues: int, n_eves: int) -> tuple[int, int, int]:
    """Sizes of one period's fading blocks, in draw order: BS->IRS, IRS->UE, IRS->eve."""
    return n_panels, n_panels * n_ues, n_panels * n_eves


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
