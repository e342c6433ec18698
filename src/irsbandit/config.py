"""Dataclass configuration for every tunable of the simulator.

All configs are frozen; construction validates the cheap field invariants,
and every error message starts with the offending field's name ("field:
message") so the config parser can prefix the section; a check across
sections names the key in full ("section.field: message").
Cross-cutting checks that belong to an operation's error contract (grid fit,
cluster divisibility) are enforced where the operation runs.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from dataclasses import dataclass


CHANNEL_BUDGET = 10_000  # fading blocks (periods x replications) while enforced


class DistributionCase(str, enum.Enum):
    """How UEs are scattered over the grid."""

    RANDOM = "random"
    CLUSTERED = "clustered"


class PolicyKind(str, enum.Enum):
    """Association policy run by each UE agent."""

    CONTEXTUAL_BANDIT = "cb"
    GREEDY = "greedy"


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return True


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_fields(cfg) -> None:
    """Reject NaN and +-inf in every float field, nested tuples included, a
    bool, a float or any other non-integral value in every int field, and
    anything but a member of its enum in an enum field (one whose default is
    a member). The enums subclass str, so a plain string equal to a member's
    value would pass every equality test and fail every identity test."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _finite(value):
            raise ValueError(f"{f.name}: must be finite, got {value!r}")
        if f.type == "int" and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ValueError(f"{f.name}: must be an integer, got {value!r}")
        kind = type(f.default)
        if issubclass(kind, enum.Enum) and not isinstance(value, kind):
            raise ValueError(f"{f.name}: must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class TopologyConfig:
    """Geometry of the two-tier layout.

    The defaults keep both IRS rings inside a 200 m square grid with the
    macro BS at the center and one small cell 50 m to each side.
    cluster_spread is the standard deviation (meters) of the isotropic
    Gaussian offset of clustered UEs around their cluster center; the
    default is sized for a queue of vehicles spanning ~100 m.
    """

    grid_side: float = 200.0
    small_cell_count: int = 2
    small_cell_offsets: tuple[tuple[float, float], ...] = ((-50.0, 0.0), (50.0, 0.0))
    irs_per_cell: int = 8
    irs_radius: float = 20.0
    eavesdroppers_per_cell: int = 2
    eve_radius: float = 25.0
    ue_count: int = 20
    distribution_case: DistributionCase = DistributionCase.RANDOM
    cluster_size: int = 10
    cluster_spread: float = 35.0
    detection_radius: float | None = None  # optional cap on candidate IRS distance

    def __post_init__(self):
        _check_fields(self)
        if self.grid_side <= 0:
            raise ValueError("grid_side: must be positive")
        if self.small_cell_count < 1:
            raise ValueError("small_cell_count: must be at least 1")
        if len(self.small_cell_offsets) != self.small_cell_count:
            raise ValueError(
                "small_cell_offsets: must list exactly small_cell_count offsets"
            )
        if self.irs_per_cell < 2:
            raise ValueError("irs_per_cell: must be at least 2")
        if self.irs_radius <= 0:
            raise ValueError("irs_radius: must be positive")
        if self.eavesdroppers_per_cell < 0:
            raise ValueError("eavesdroppers_per_cell: must be non-negative")
        if self.eve_radius <= self.irs_radius:
            raise ValueError("eve_radius: must exceed irs_radius")
        if self.ue_count < 1:
            raise ValueError("ue_count: must be at least 1")
        if self.cluster_size < 1:
            raise ValueError("cluster_size: must be at least 1")
        if self.cluster_spread < 0:
            raise ValueError("cluster_spread: must be non-negative")
        if self.detection_radius is not None and self.detection_radius <= 0:
            raise ValueError("detection_radius: must be positive when set")
        for i, pair in enumerate(self.small_cell_offsets):
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_real, pair))):
                raise ValueError(
                    f"small_cell_offsets: entry {i} must be an (x, y) pair of numbers, "
                    f"got {pair!r}"
                )
        side, r = self.grid_side, self.irs_radius
        for i, (dx, dy) in enumerate(self.small_cell_offsets):
            x, y = side / 2.0 + dx, side / 2.0 + dy  # build_topology's cell center
            if min(x, y) - r < 0 or max(x, y) + r > side:
                raise ValueError(
                    f"small_cell_offsets: small cell {i} at ({x}, {y}) "
                    f"leaves the grid or its IRS ring does"
                )
        clustered = self.distribution_case is not DistributionCase.RANDOM  # as place_ues reads it
        if clustered and self.ue_count % self.cluster_size:
            raise ValueError("ue_count: clustered placement needs it divisible by cluster_size")


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants of the cascaded BS -> IRS -> UE channel.

    The default budget is normalized: noise power is the 0 dB reference,
    ref_loss_db is folded into irs_gain_db, and irs_gain_db is calibrated
    (scripts/calibrate_satisfaction.py) so that the per-panel satisfaction
    probability of the default geometry sits strictly inside (0.2, 0.8).
    Absolute units are available by setting ref_loss_db / noise_power_db
    to real values.
    """

    pathloss_exponent: float = 2.2
    ref_loss_db: float = 0.0
    irs_gain_db: float = 61.0
    tx_power_db: float = 5.0
    noise_power_db: float = 0.0

    def __post_init__(self):
        _check_fields(self)
        if self.pathloss_exponent < 2:
            raise ValueError("pathloss_exponent: must be at least 2")
        if 10.0 * self.pathloss_exponent == math.inf:  # inf * log10(1 m) is NaN
            raise ValueError("pathloss_exponent: too large, 10 times it overflows")
        if self.irs_gain_db < 0:
            raise ValueError("irs_gain_db: must be non-negative")


@dataclass(frozen=True)
class PolicyConfig:
    """Exploration rate, stickiness, and which policy the agents run."""

    kind: PolicyKind = PolicyKind.CONTEXTUAL_BANDIT
    omega: float = 0.1
    phi: int = 2

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega: must be within [0, 1]")
        if self.phi < 1:
            raise ValueError("phi: must be at least 1")


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment protocol for one Monte-Carlo run."""

    topology: TopologyConfig = TopologyConfig()
    channel: ChannelParams = ChannelParams()
    policy: PolicyConfig = PolicyConfig()
    base_seed: int = 12345
    periods: int = 100
    replications: int = 100
    rate_threshold: float = 1.0
    enforce_channel_budget: bool = True

    def __post_init__(self):
        _check_fields(self)
        if self.base_seed < 0:
            raise ValueError("base_seed: must be non-negative")
        if self.rate_threshold <= 0:
            raise ValueError("rate_threshold: must be positive")
        if self.periods < 1:
            raise ValueError("periods: must be at least 1")
        if self.replications < 1:
            raise ValueError("replications: must be at least 1")
        if self.enforce_channel_budget and self.periods * self.replications > CHANNEL_BUDGET:
            raise ValueError(
                "enforce_channel_budget: periods * replications exceeds the "
                f"{CHANNEL_BUDGET} fading blocks; set it false to lift the bound"
            )
        # The strongest link's SNR factor, panel irs_radius from its cell and 1 m from
        # the receiver, must stay below 1e300, which leaves room for two fading gains.
        p, d_feed = self.channel, max(self.topology.irs_radius, 1.0)
        peak_db = p.tx_power_db + p.irs_gain_db - 2 * p.ref_loss_db - p.noise_power_db
        if not peak_db - 10 * p.pathloss_exponent * math.log10(d_feed) <= 3000.0:
            raise ValueError("channel.tx_power_db: the largest linear SNR factor exceeds 1e300")
        # Every link's budget, in channel.budgets_db's order, must lie within 2**1022 dB
        # (see engine.ChannelLanes.strongest) and stay finite down to its SNR exponent.
        # No hop loses less than ref_loss_db; panels and UEs lie in the grid (TopologyConfig
        # checks every ring) and eavesdroppers within eve_radius of a cell in it, so with a
        # relative margin for the rounding of the positions, irs_radius bounds every feed
        # and the grid's diagonal plus eve_radius every UE and eavesdropper hop.
        t, slack = self.topology, 1.0 + 2.0**-20
        d_rx = math.hypot(t.grid_side, t.grid_side) * slack
        if t.eavesdroppers_per_cell:
            d_rx += t.eve_radius * slack
        n10 = 10 * p.pathloss_exponent
        floor_db = (
            p.tx_power_db
            + p.irs_gain_db
            - (p.ref_loss_db + n10 * math.log10(max(t.irs_radius * slack, 1.0)))
            - (p.ref_loss_db + n10 * math.log10(max(d_rx, 1.0)))
        )
        ceiling_db = p.tx_power_db + p.irs_gain_db - p.ref_loss_db - p.ref_loss_db
        exponent = (floor_db - p.noise_power_db) / 10.0
        if not (-(2.0**1022) <= floor_db and ceiling_db <= 2.0**1022 and math.isfinite(exponent)):
            raise ValueError("channel.ref_loss_db: a link budget is not within 2**1022 dB")
