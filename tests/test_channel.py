import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbandit.channel import budgets_db, feeds_db, fill_fading, path_losses_db, snr_factors
from irsbandit.config import ChannelParams, SimulationConfig, TopologyConfig
from irsbandit.experiment import ConfigError, parse_config
from irsbandit.topology import build_network
from reference_model import (
    achievable_rate,
    budget_db,
    cascaded_snr,
    draw_fading,
    feed_db,
    path_loss_db,
    rssi_db,
    secrecy_rate,
    snr_factor,
)


P0 = (0.0, 0.0)


class TestPathLoss:
    def test_reference_distance_identity(self):
        assert path_loss_db(1.0, 2.2, 0.0) == 0.0

    def test_decade_is_ten_n(self):
        assert math.isclose(path_loss_db(10.0, 2.2, 0.0), 22.0, abs_tol=1e-12)

    def test_frozen_example(self):
        # 46.4 + 22*log10(20) = 75.0227, checked by hand before implementation
        assert math.isclose(path_loss_db(20.0, 2.2, 46.4), 75.0227, abs_tol=5e-4)

    def test_clamped_below_reference(self):
        assert path_loss_db(0.2, 2.2, 3.0) == path_loss_db(1.0, 2.2, 3.0)

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.floats(min_value=1.0, max_value=1e4),
        d2=st.floats(min_value=1.0, max_value=1e4),
        n=st.floats(min_value=2.0, max_value=4.0),
    )
    def test_monotone_in_distance(self, d1, d2, n):
        if d1 > d2:
            d1, d2 = d2, d1
        assert path_loss_db(d1, n, 0.0) <= path_loss_db(d2, n, 0.0)


def fading(rng, n: int) -> np.ndarray:
    """n Rayleigh power gains from rng, drawn as one stream's fading."""
    out = np.empty(n)
    return fill_fading([(rng, out)], out)


class TestFading:
    def test_strictly_positive(self):
        assert fading(np.random.default_rng(0), 1000).all()

    def test_unit_mean_and_variance(self):
        draws = fading(np.random.default_rng(42), 100_000)
        assert abs(draws.mean() - 1.0) < 0.01
        assert abs(draws.var() - 1.0) < 0.05

    def test_same_seed_same_sequence(self):
        """One call or several, a seed's gains are one sequence."""
        ra, rb = np.random.default_rng(6), np.random.default_rng(6)
        whole = fading(ra, 50)
        parts = np.concatenate([fading(rb, n) for n in (1, 20, 0, 29)])
        assert whole.tobytes() == parts.tobytes()
        assert ra.bit_generator.state == rb.bit_generator.state


class TestCascadedSnr:
    def setup_method(self):
        self.p = ChannelParams(
            irs_gain_db=0.0, tx_power_db=5.0, noise_power_db=0.0, ref_loss_db=0.0
        )

    def test_reference_budget(self):
        # both legs at the reference distance, unit gains: 10^(5/10)
        snr = cascaded_snr(P0, P0, P0, 1.0, 1.0, self.p)
        assert math.isclose(snr, 3.1623, abs_tol=1e-4)

    def test_zero_gain_limit(self):
        assert cascaded_snr(P0, P0, P0, 0.0, 1.0, self.p) == 0.0

    def test_three_db_step(self):
        p2 = ChannelParams(
            irs_gain_db=3.0, tx_power_db=5.0, noise_power_db=0.0, ref_loss_db=0.0
        )
        ratio = cascaded_snr(P0, P0, P0, 1.0, 1.0, p2) / cascaded_snr(
            P0, P0, P0, 1.0, 1.0, self.p
        )
        assert math.isclose(ratio, 1.9953, abs_tol=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(
        g1=st.floats(min_value=1e-6, max_value=1e3),
        g2=st.floats(min_value=1e-6, max_value=1e3),
        scale=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_linear_in_each_gain(self, g1, g2, scale):
        base = cascaded_snr(P0, P0, P0, g1, g2, self.p)
        assert math.isclose(
            cascaded_snr(P0, P0, P0, g1, g2 * scale, self.p), base * scale, rel_tol=1e-9
        )
        assert math.isclose(
            cascaded_snr(P0, P0, P0, g1 * scale, g2, self.p), base * scale, rel_tol=1e-9
        )


class TestAchievableRate:
    @pytest.mark.parametrize("snr,rate", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_known_points(self, snr, rate):
        assert achievable_rate(snr) == rate

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(-0.1)

    def test_increasing_and_concave(self):
        xs = np.linspace(0.0, 50.0, 200)
        ys = np.array([achievable_rate(x) for x in xs])
        assert np.all(np.diff(ys) > 0)
        assert np.all(np.diff(ys, 2) < 1e-12)


class Scripted:
    """Generator stand-in whose Exp(1) variates are a fixed sequence."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.used = 0

    def _take(self, n):
        out = self.values[self.used : self.used + n]
        assert len(out) == n, "script exhausted"
        self.used += n
        return out.copy()

    def exponential(self, size):
        return self._take(size)

    def standard_exponential(self, size=None, out=None):
        if out is None:
            return self._take(size)
        out[:] = self._take(len(out))
        return out


def _network(n_panels: int, n_eves: int) -> SimpleNamespace:
    """Node counts as reference_model.draw_fading reads them from a network."""
    return SimpleNamespace(panel_xy=np.empty((n_panels, 2)), eve_xy=np.empty((n_eves, 2)))


def _reference_fading(shape, rng) -> np.ndarray:
    """reference_model.draw_fading's gains of a (panels, UEs, eavesdroppers)
    network whose every UE holds every panel, flat in the engine's order:
    BS->IRS, IRS->UE by (UE, candidate panel) pair, IRS->eve."""
    n_panels, n_ues, n_eves = shape
    real = draw_fading(_network(n_panels, n_eves), [range(n_panels)] * n_ues, rng)
    return np.concatenate(
        [real.g_bs_irs, list(real.g_irs_ue.values()), real.g_irs_eve.ravel()]
    )


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    values=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)),
        min_size=60,
        max_size=60,
    ),
)
def test_fill_fading_matches_the_reference_draw(shape, values):
    """Exact zeros anywhere in a stream's block are redrawn, in position
    order, until none is left: the gains and the stream consumed are those
    of reference_model.draw_fading."""
    values[40:] = [1.0] * 20  # no zero can outlast the script
    want_rng = Scripted(values)
    try:
        want = _reference_fading(shape, want_rng)
    except AssertionError:  # more zeros than the script covers
        return
    got_rng = Scripted(values)
    got = fading(got_rng, len(want))
    assert got.tobytes() == want.tobytes()
    assert got_rng.used == want_rng.used
    assert got.all()


# A (2 panels, 2 UEs, 1 eavesdropper) block: BS->IRS gains at 0-1, IRS->UE
# at 2-5, IRS->eve at 6-7; the script's values from position 8 on are redraws.
_DRAWN = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize(
    "zeros, redraws, want, used",
    [
        ([0], [9.0], [9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 9),
        ([3], [9.0], [1.0, 2.0, 3.0, 9.0, 5.0, 6.0, 7.0, 8.0], 9),
        ([7], [9.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0], 9),
        ([1, 4, 6], [9.0, 10.0, 11.0], [1.0, 9.0, 3.0, 4.0, 10.0, 6.0, 11.0, 8.0], 11),
        ([0, 5], [0.0, 9.0, 10.0], [10.0, 2.0, 3.0, 4.0, 5.0, 9.0, 7.0, 8.0], 11),
    ],
    ids=["bs-irs", "irs-ue", "irs-eve", "every-block", "redraw-is-zero"],
)
def test_fill_fading_redraws_zeros_in_position_order(zeros, redraws, want, used):
    """Zeros in each block, and a redraw that is itself 0.0, against the
    values worked by hand and against the reference draw."""
    drawn = [0.0 if k in zeros else v for k, v in enumerate(_DRAWN)]
    script = drawn + redraws + [99.0]  # the last value is never reached
    ref_rng, rng = Scripted(script), Scripted(script)
    assert _reference_fading((2, 2, 1), ref_rng).tolist() == want
    assert fading(rng, 8).tolist() == want
    assert rng.used == ref_rng.used == used


def test_fill_fading_streams_redraw_from_their_own_generators():
    """Three streams in one buffer: each redraws its own zeros from its own
    Generator and leaves it where the reference draw leaves it."""
    shapes = [(2, 2, 1), (1, 3, 0), (3, 2, 2)]
    scripts = [
        [0.5, 0.0, 1.5, 2.0, 0.25, 3.0, 0.0, 1.0, 0.0, 4.0, 5.0, 6.0],
        [0.0, 7.0, 8.0, 9.0, 0.0, 10.0, 11.0],
    ]
    rngs = [Scripted(v) for v in scripts] + [np.random.default_rng(8)]
    twins = [Scripted(v) for v in scripts] + [np.random.default_rng(8)]
    sizes = [p * (1 + u + e) for p, u, e in shapes]
    bounds = np.cumsum([0] + sizes)
    gains = np.empty(bounds[-1])
    draws = [(rng, gains[lo:hi]) for rng, lo, hi in zip(rngs, bounds, bounds[1:])]
    fill_fading(draws, gains)
    want = np.concatenate([_reference_fading(s, twin) for s, twin in zip(shapes, twins)])
    assert gains.tobytes() == want.tobytes()
    assert gains[:12].tolist() == [0.5, 5.0, 1.5, 2.0, 0.25, 3.0, 4.0, 1.0, 10.0, 7.0, 8.0, 9.0]
    assert [rng.used for rng in rngs[:2]] == [twin.used for twin in twins[:2]] == [11, 6]
    assert rngs[2].bit_generator.state == twins[2].bit_generator.state


class TestRssi:
    def setup_method(self):
        self.p = ChannelParams()
        self.bs = (50.0, 100.0)
        self.ue = (80.0, 100.0)

    def test_equal_geometry_equal_fading_same_rssi(self):
        a = (50.0, 120.0)
        b = (50.0, 80.0)  # mirrored panel, same distances
        assert math.isclose(
            rssi_db(self.bs, a, (50.0, 140.0), 0.7, 1.3, self.p),
            rssi_db(self.bs, b, (50.0, 60.0), 0.7, 1.3, self.p),
            abs_tol=1e-12,
        )

    def test_closer_panel_wins_at_equal_fading(self):
        near = (70.0, 100.0)
        far = (30.0, 100.0)
        assert rssi_db(self.bs, near, self.ue, 1.0, 1.0, self.p) > rssi_db(
            self.bs, far, self.ue, 1.0, 1.0, self.p
        )

    def test_golden_default_scenario_ue0(self):
        # Frozen from an independent straight-line computation (seed 42,
        # default scenario, UE 0, first candidate panel): the script
        # replays the documented draw order (eve angles, UE uniforms,
        # then the fading block) and evaluates
        # tx + gain - PL(20) - PL(|panel-ue|) + 10*log10(g1*g2) directly.
        from irsbandit.engine import ChannelEnvironment, ChannelLanes

        cfg = TopologyConfig()
        rng = np.random.default_rng(42)
        topo = build_network(cfg, rng)
        env = ChannelEnvironment(topo, ChannelParams(), rate_threshold=1.0)
        lanes = ChannelLanes([env], [rng])
        lanes.draw()
        rssi = lanes.rssi()  # one entry per slot; UE 0's come first
        assert math.isclose(rssi[env.offsets[0]], -6.4650184599, abs_tol=1e-9)


class TestSecrecyRate:
    def test_positive_margin(self):
        assert secrecy_rate(2.0, 0.5) == 1.5

    def test_clamped_at_zero(self):
        assert secrecy_rate(0.5, 2.0) == 0.0

    def test_equal_rates(self):
        assert secrecy_rate(1.7, 1.7) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            secrecy_rate(-1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        r_main=st.floats(min_value=0.0, max_value=50.0),
        r_eve=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_bounded_by_main_rate(self, r_main, r_eve):
        s = secrecy_rate(r_main, r_eve)
        assert 0.0 <= s <= r_main


class TestRealization:
    def test_pure_functions_no_hidden_state(self):
        p = ChannelParams()
        args = ((0, 0), (3, 4), (6, 8), 0.5, 2.0, p)
        assert cascaded_snr(*args) == cascaded_snr(*args)
        assert rssi_db(*args) == rssi_db(*args)


hop_lengths = st.lists(st.floats(min_value=0.0, max_value=2000.0), min_size=1, max_size=20)


@settings(max_examples=100, deadline=None)
@given(
    d_bs_irs=hop_lengths,
    d_irs_rx=hop_lengths,
    exponent=st.floats(min_value=2.0, max_value=6.0),
    ref_loss_db=st.floats(min_value=-40.0, max_value=80.0),
    irs_gain_db=st.floats(min_value=0.0, max_value=120.0),
    tx_power_db=st.floats(min_value=-30.0, max_value=60.0),
    noise_power_db=st.floats(min_value=-120.0, max_value=30.0),
)
def test_array_budgets_match_scalar_functions_bit_for_bit(
    d_bs_irs, d_irs_rx, exponent, ref_loss_db, irs_gain_db, tx_power_db, noise_power_db
):
    """path_losses_db, feeds_db, budgets_db and snr_factors equal their scalar forms per element."""
    p = ChannelParams(
        pathloss_exponent=exponent,
        ref_loss_db=ref_loss_db,
        irs_gain_db=irs_gain_db,
        tx_power_db=tx_power_db,
        noise_power_db=noise_power_db,
    )
    feeds = np.array(d_bs_irs)
    panel = np.arange(len(d_irs_rx)) % len(d_bs_irs)
    got_pl = path_losses_db(np.array(d_irs_rx), p)
    got_feed = feeds_db(feeds, p)
    got_budget = budgets_db(got_feed, panel, np.array(d_irs_rx), p)
    got_snr = snr_factors(got_budget, p)
    for i, d in enumerate(d_bs_irs):
        assert got_feed[i].hex() == feed_db(d, p).hex()
    for j, d in enumerate(d_irs_rx):
        budget = budget_db(feed_db(d_bs_irs[panel[j]], p), d, p)
        assert got_pl[j].hex() == path_loss_db(d, exponent, ref_loss_db).hex()
        assert got_budget[j].hex() == budget.hex()
        assert got_snr[j].hex() == snr_factor(budget, p).hex()


def test_snr_factors_are_pow_bit_for_bit_into_the_underflow_range():
    """snr_factors gives pow(10.0, x) of every exponent x = (budget - noise)/10,
    bit for bit, over a sweep of x in [-330, 308]: normal results, subnormal
    ones below 10**-308 and zeros below about 10**-324. A 2-D budget keeps
    its shape."""
    p = ChannelParams(noise_power_db=-7.25)
    rng = np.random.default_rng(2024)
    exponents = np.concatenate(
        [
            np.linspace(-330.0, 308.0, 200_001),
            rng.uniform(-330.0, 308.0, 200_000),
            rng.uniform(-325.0, -308.0, 50_000),  # 10**x subnormal or 0
        ]
    )
    budget = 10.0 * exponents + p.noise_power_db
    got = snr_factors(budget, p)
    want = [pow(10.0, (b - p.noise_power_db) / 10.0) for b in budget.tolist()]
    assert got.tobytes() == np.array(want).tobytes()
    assert (got == 0.0).any() and ((got > 0.0) & (got < 2.2250738585072014e-308)).any()
    block = budget[:12].reshape(3, 4)
    assert snr_factors(block, p).tobytes() == got[:12].tobytes()
    assert snr_factors(block, p).shape == (3, 4)


@pytest.mark.parametrize(
    "text",
    [
        "[channel]\ntx_power_db = 3100\n",
        "[channel]\nirs_gain_db = 1e308\ntx_power_db = 1e308\n",
        "[channel]\nnoise_power_db = -3000\n",
    ],
)
def test_snr_overflow_rejected_before_any_pow(text, monkeypatch):
    """A channel whose SNR factor could overflow is rejected as
    channel.tx_power_db while the config is read, before any pow runs; left
    to pow, such a factor overflows."""
    calls = []
    real_pow = math.pow
    monkeypatch.setattr(math, "pow", lambda x, y: calls.append(y) or real_pow(x, y))
    with pytest.raises(ConfigError, match=r"^channel\.tx_power_db: "):
        parse_config(text)
    with pytest.raises(ValueError, match=r"^channel\.tx_power_db: "):
        SimulationConfig(channel=ChannelParams(tx_power_db=3100.0))
    assert calls == []
    with pytest.raises(OverflowError):
        snr_factors(np.array([3100.0 + 5.0]), ChannelParams())
    assert calls
