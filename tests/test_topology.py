import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from irsbandit.config import ChannelParams, DistributionCase, TopologyConfig
from irsbandit.engine import ChannelEnvironment
from irsbandit.topology import (
    NetworkTopology,
    build_network,
    build_topology,
    candidate_slots,
    distances,
    place_ues,
    serving_cells,
)

import reference_model


def rng(seed=0):
    return np.random.default_rng(seed)


def with_ue_xy(topo, points):
    return dataclasses.replace(topo, ue_xy=np.array(points, dtype=float).reshape(-1, 2))


def leaves_grid(i, x, y):
    """TopologyConfig's message for small cell i, centered at (x, y), that does not fit."""
    return f"small_cell_offsets: small cell {i} at ({x}, {y}) leaves the grid or its IRS ring does"


def candidates(topo, detection_radius=None):
    """Each UE's candidate panels, as one list per UE."""
    arms, offsets = candidate_slots(topo, detection_radius)
    return [arms[lo:hi].tolist() for lo, hi in zip(offsets[:-1], offsets[1:])]


def slots_with_hops(topo, detection_radius=None):
    """candidate_slots' arms and offsets, and every slot's hop length as the
    channel computes it on demand (ChannelEnvironment.links)."""
    arms, offsets = candidate_slots(topo, detection_radius)
    env = ChannelEnvironment(topo, ChannelParams(), 1.0, detection_radius)
    assert env.arms.tobytes() == arms.tobytes() and env.offsets.tobytes() == offsets.tobytes()
    return arms, offsets, env.links(np.arange(len(arms)))[0]


class TestBuildTopology:
    def test_default_layout_counts(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng())
        assert topo.grid_side == 200.0
        assert topo.cell_xy.tolist() == [[50.0, 100.0], [150.0, 100.0]]
        assert topo.panel_xy.shape == (16, 2)
        assert topo.panel_cell.tolist() == [0] * 8 + [1] * 8
        assert topo.eve_xy.shape == (4, 2)
        assert topo.ue_xy.shape == (0, 2)

    def test_sixteen_panels_exactly_on_ring(self):
        # 2 cells x 8 panels, each exactly 20 m from its cell center
        cfg = TopologyConfig(irs_per_cell=8, irs_radius=20.0)
        topo = build_topology(cfg, rng())
        assert topo.panel_xy.shape == (16, 2)
        d = distances(topo.panel_xy, topo.cell_xy[topo.panel_cell])
        assert np.allclose(d, 20.0, rtol=0.0, atol=1e-9)

    def test_four_panels_axis_aligned(self):
        # cell at grid center, ring 20: panels at (+-20, 0), (0, +-20)
        cfg = TopologyConfig(
            small_cell_count=1,
            small_cell_offsets=((0.0, 0.0),),
            irs_per_cell=4,
            irs_radius=20.0,
        )
        topo = build_topology(cfg, rng())
        rel = (topo.panel_xy - topo.cell_xy[0]).tolist()
        expected = [(20.0, 0.0), (0.0, 20.0), (-20.0, 0.0), (0.0, -20.0)]
        for (gx, gy), (ex, ey) in zip(rel, expected):
            assert math.isclose(gx, ex, abs_tol=1e-9)
            assert math.isclose(gy, ey, abs_tol=1e-9)

    def test_same_seed_bit_identical(self):
        cfg = TopologyConfig()
        a = build_topology(cfg, rng(7))
        b = build_topology(cfg, rng(7))
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    # The grid fit is checked when the config is built, so no build can fail on it.
    def test_offsets_outside_grid_rejected(self):
        with pytest.raises(ValueError) as info:
            TopologyConfig(small_cell_offsets=((-95.0, 0.0), (50.0, 0.0)))
        assert str(info.value) == leaves_grid(0, 5.0, 100.0)

    def test_ring_clipping_grid_rejected(self):
        # cell inside, but ring pokes out
        with pytest.raises(ValueError) as info:
            TopologyConfig(
                small_cell_count=1,
                small_cell_offsets=((-90.0, 0.0),),
                irs_radius=20.0,
            )
        assert str(info.value) == leaves_grid(0, 10.0, 100.0)

    @pytest.mark.parametrize(
        "offsets, message",
        [
            (((-105.0, 0.0),), leaves_grid(0, -5.0, 100.0)),
            # cell 0 fits; cell 1's ring leaves through the top edge
            (((-50.0, 0.0), (50.0, 85.0)), leaves_grid(1, 150.0, 185.0)),
        ],
        ids=["center-outside", "second-cell"],
    )
    def test_first_failing_cell_is_named(self, offsets, message):
        with pytest.raises(ValueError) as info:
            TopologyConfig(small_cell_count=len(offsets), small_cell_offsets=offsets)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "offsets",
        [((1.0, 2.0, 3.0),), ((1.0,),), (("1", "2"),), (1.0,)],
        ids=["three-numbers", "one-number", "strings", "bare-number"],
    )
    def test_malformed_offset_entry_named(self, offsets):
        """An entry that is not an (x, y) pair of numbers is rejected by key
        when the config is built in library code, before the grid fit reads it."""
        with pytest.raises(ValueError) as info:
            TopologyConfig(small_cell_count=1, small_cell_offsets=offsets)
        assert str(info.value) == (
            f"small_cell_offsets: entry 0 must be an (x, y) pair of numbers, got {offsets[0]!r}"
        )

    def test_ring_touching_grid_edges_accepted(self):
        # cell 0's ring reaches x = 0 and cell 1's reaches y = 200 exactly
        cfg = TopologyConfig(small_cell_offsets=((-80.0, 0.0), (0.0, 80.0)))
        topo = build_topology(cfg, rng())
        assert topo.panel_xy.min() == 0.0 and topo.panel_xy.max() == 200.0

    def test_eavesdroppers_outside_ring(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(3))
        eve_cell = np.repeat(np.arange(len(topo.cell_xy)), cfg.eavesdroppers_per_cell)
        assert len(topo.eve_xy) == len(eve_cell) == 4
        assert (distances(topo.eve_xy, topo.cell_xy[eve_cell]) > cfg.irs_radius).all()


class TestPlaceUes:
    def test_random_points_inside_grid(self):
        cfg = TopologyConfig(ue_count=20)
        topo = build_topology(cfg, rng(1))
        ues = place_ues(cfg, topo, rng(1))
        assert ues.shape == (20, 2)
        assert ((0.0 <= ues) & (ues <= cfg.grid_side)).all()

    def test_clustered_counts(self):
        cfg = TopologyConfig(
            ue_count=20,
            cluster_size=10,
            distribution_case=DistributionCase.CLUSTERED,
        )
        topo = build_topology(cfg, rng(2))
        ues = place_ues(cfg, topo, rng(2))
        assert ues.shape == (20, 2)  # exactly 2 clusters of 10

    def test_zero_spread_collapses_clusters(self):
        cfg = TopologyConfig(
            ue_count=20,
            cluster_size=10,
            cluster_spread=0.0,
            distribution_case=DistributionCase.CLUSTERED,
        )
        topo = build_topology(cfg, rng(2))
        ues = place_ues(cfg, topo, rng(2))
        first = set(map(tuple, ues[:10].tolist()))
        second = set(map(tuple, ues[10:].tolist()))
        assert len(first) == 1 and len(second) == 1

    def test_indivisible_cluster_rejected(self):
        with pytest.raises(ValueError) as info:
            TopologyConfig(
                ue_count=25,
                cluster_size=10,
                distribution_case=DistributionCase.CLUSTERED,
            )
        message = "ue_count: clustered placement needs it divisible by cluster_size"
        assert str(info.value) == message

    def test_indivisible_random_count_accepted(self):
        cfg = TopologyConfig(ue_count=25, cluster_size=10)
        assert build_network(cfg, rng(2)).ue_xy.shape == (25, 2)

    def test_same_seed_identical_placement(self):
        cfg = TopologyConfig(distribution_case=DistributionCase.CLUSTERED)
        topo = build_topology(cfg, rng(5))
        assert np.array_equal(place_ues(cfg, topo, rng(9)), place_ues(cfg, topo, rng(9)))


class TestServingCell:
    def test_ue_on_cell_position(self):
        topo = build_topology(TopologyConfig(), rng())
        assert serving_cells(topo.cell_xy[1:], topo).tolist() == [1]

    def test_equidistant_tie_goes_low(self):
        topo = build_topology(TopologyConfig(), rng())
        # (100, y) is equidistant from cells at (50, 100) and (150, 100)
        assert serving_cells(np.array([[100.0, 37.0]]), topo).tolist() == [0]

    def test_corner_nearest_cell_one(self):
        topo = build_topology(TopologyConfig(), rng())
        assert serving_cells(np.array([[199.0, 199.0]]), topo).tolist() == [1]


class TestCandidateSet:
    def test_cell_zero_gets_first_ring(self):
        cfg = TopologyConfig()
        topo = build_network(cfg, rng(4))
        topo = with_ue_xy(topo, [(40.0, 90.0)])
        assert candidates(topo) == [list(range(8))]

    def test_cells_partition_panels(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ue_xy(topo, [(40.0, 90.0), (160.0, 90.0)])
        a, b = candidates(topo)
        assert set(a).isdisjoint(b)
        assert sorted(a + b) == list(range(len(topo.panel_xy)))

    def test_same_cell_same_candidates(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ue_xy(topo, [(40.0, 90.0), (60.0, 120.0)])
        a, b = candidates(topo)
        assert a == b

    def test_detection_radius_filters_but_never_empties(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ue_xy(topo, [(70.5, 100.0)])
        near = candidates(topo, detection_radius=5.0)
        assert near == [[0]]  # panel 0 sits at (70, 100)
        far = candidates(topo, detection_radius=0.001)
        assert far == [list(range(8))]  # filter would empty: full ring stands in


grids = st.floats(min_value=100.0, max_value=1000.0)
radius_fractions = st.floats(min_value=0.02, max_value=0.2)
panel_counts = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(grid=grids, fraction=radius_fractions, n_panels=panel_counts, seed=seeds)
def test_ring_distance_invariant(grid, fraction, n_panels, seed):
    radius = grid * fraction  # keeps the ring inside the grid
    cfg = TopologyConfig(
        grid_side=grid,
        small_cell_offsets=((-grid / 4, 0.0), (grid / 4, 0.0)),
        irs_per_cell=n_panels,
        irs_radius=radius,
        eve_radius=radius + 1.0,
    )
    topo = build_topology(cfg, np.random.default_rng(seed))
    d = distances(topo.panel_xy, topo.cell_xy[topo.panel_cell])
    assert np.allclose(d, radius, rtol=0.0, atol=1e-9)
    rel = topo.panel_xy - topo.cell_xy[topo.panel_cell]
    angles = sorted(
        math.atan2(dy, dx) % (2 * math.pi)
        for (dx, dy), c in zip(rel.tolist(), topo.panel_cell.tolist())
        if c == 0
    )
    gaps = np.diff(angles + [angles[0] + 2 * math.pi])
    assert np.allclose(gaps, 2 * math.pi / n_panels, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    n_ues=st.integers(min_value=1, max_value=50),
    case=st.sampled_from(list(DistributionCase)),
)
def test_placement_support_and_count(seed, n_ues, case):
    if case is DistributionCase.CLUSTERED:
        n_ues = max(1, n_ues) * 5  # make divisible by the cluster size
        cfg = TopologyConfig(ue_count=n_ues, cluster_size=5, distribution_case=case)
    else:
        cfg = TopologyConfig(ue_count=n_ues, distribution_case=case)
    topo = build_topology(cfg, np.random.default_rng(seed))
    ues = place_ues(cfg, topo, np.random.default_rng(seed))
    assert ues.shape == (cfg.ue_count, 2)
    assert ((0.0 <= ues) & (ues <= cfg.grid_side)).all()


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    grid=st.floats(min_value=1.0, max_value=500.0),
    cell_fractions=st.lists(
        st.tuples(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45)), min_size=1, max_size=3
    ),
    radius_fraction=st.floats(min_value=0.01, max_value=0.25),
    n_ues=st.integers(min_value=1, max_value=30),
    case=st.sampled_from(list(DistributionCase)),
    cluster_size=st.integers(min_value=1, max_value=6),
)
def test_every_constructed_topology_builds(
    seed, grid, cell_fractions, radius_fraction, n_ues, case, cluster_size
):
    """A TopologyConfig either names the field it rejects or builds a network
    with ue_count UEs, and every panel and UE inside the grid."""
    radius = grid * radius_fraction
    try:
        cfg = TopologyConfig(
            grid_side=grid,
            small_cell_count=len(cell_fractions),
            small_cell_offsets=tuple((fx * grid, fy * grid) for fx, fy in cell_fractions),
            irs_radius=radius,
            eve_radius=radius * 1.5,
            ue_count=n_ues,
            distribution_case=case,
            cluster_size=cluster_size,
        )
    except ValueError as exc:
        field = str(exc).partition(":")[0]
        assert field in ("small_cell_offsets", "ue_count"), str(exc)
        event(f"rejected: {field}")
        return
    event("accepted")
    topo = build_network(cfg, np.random.default_rng(seed))
    assert topo.ue_xy.shape == (n_ues, 2)
    for xy in (topo.ue_xy, topo.panel_xy):
        assert ((0.0 <= xy) & (xy <= grid)).all()


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_candidate_union_is_partition(seed):
    cfg = TopologyConfig(ue_count=10)
    topo = build_network(cfg, np.random.default_rng(seed))
    seen = [frozenset(arms) for arms in candidates(topo)]
    assert len(seen) == cfg.ue_count
    for a in seen:
        for b in seen:
            assert a == b or a.isdisjoint(b)


CELL_LAYOUTS = {
    1: ((0.0, 0.0),),
    2: ((-50.0, 0.0), (50.0, 0.0)),
    4: ((-50.0, -50.0), (50.0, -50.0), (-50.0, 50.0), (50.0, 50.0)),
}


@settings(max_examples=80, deadline=None)
@given(
    seed=seeds,
    n_cells=st.sampled_from(sorted(CELL_LAYOUTS)),
    n_panels=panel_counts,
    n_eves=st.integers(min_value=0, max_value=3),
    case=st.sampled_from(list(DistributionCase)),
    tie_ys=st.lists(
        st.one_of(st.just(100.0), st.floats(min_value=0.0, max_value=200.0)), max_size=3
    ),
    radius_mode=st.sampled_from(["none", "drawn", "panel_distance", "below_all"]),
    radius=st.floats(min_value=1.0, max_value=80.0),
)
def test_candidate_slots_match_scalar_selection(
    seed, n_cells, n_panels, n_eves, case, tie_ys, radius_mode, radius
):
    """candidate_slots reproduces the per-UE scalar selection bit for bit.

    Extra UEs on the line x = 100 sit exactly halfway between cells 0 and
    1 (and, with four cells, between 2 and 3; at y = 100 between all
    four), so the serving cell is a tie that must go to the lower index.
    The detection radius is unset, drawn, exactly one panel's distance
    (which <= keeps), or below every distance (every ring falls back whole).
    """
    cfg = TopologyConfig(
        small_cell_count=n_cells,
        small_cell_offsets=CELL_LAYOUTS[n_cells],
        irs_per_cell=n_panels,
        eavesdroppers_per_cell=n_eves,
        ue_count=10,
        distribution_case=case,
        cluster_size=5,
    )
    topo = build_network(cfg, np.random.default_rng(seed))
    topo = with_ue_xy(topo, topo.ue_xy.tolist() + [(100.0, y) for y in tie_ys])
    full = [reference_model.candidate_irs_distances(u, topo) for u in range(len(topo.ue_xy))]
    detection_radius = {
        "none": None,
        "drawn": radius,
        "panel_distance": full[0][1][int(radius) % n_panels],
        "below_all": min(min(d) for _, d in full) / 2,
    }[radius_mode]
    if radius_mode == "below_all" and detection_radius == 0.0:
        detection_radius = None  # a UE on a panel: nothing lies below it

    arms, offsets, distances = slots_with_hops(topo, detection_radius)
    assert arms.dtype == offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == len(arms) == len(distances)
    cells = serving_cells(topo.ue_xy, topo).tolist()
    for u, ue in enumerate(topo.ue_xy.tolist()):
        want_arms, want_distances = reference_model.candidate_irs_distances(
            u, topo, detection_radius
        )
        lo, hi = offsets[u], offsets[u + 1]
        assert arms[lo:hi].tolist() == want_arms
        assert [d.hex() for d in distances[lo:hi].tolist()] == [
            d.hex() for d in want_distances
        ]
        assert cells[u] == reference_model.serving_cell(ue, topo)

    for u in range(cfg.ue_count, len(topo.ue_xy)):
        y = topo.ue_xy[u, 1]
        low = 0 if n_cells < 4 or y <= 100.0 else 2
        assert cells[u] == low
    if radius_mode == "panel_distance":
        assert arms[offsets[0] : offsets[1]].tolist().count(
            full[0][0][int(radius) % n_panels]
        ) == 1
    if radius_mode == "below_all" and detection_radius is not None:
        assert (np.diff(offsets) == n_panels).all()


def _same_bits(array, points):
    assert array.dtype == np.float64
    assert array.tobytes() == np.array(points, dtype=float).reshape(-1, 2).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    grid=grids,
    fraction=radius_fractions,
    n_panels=panel_counts,
    seed=seeds,
    n_cells=st.sampled_from(sorted(CELL_LAYOUTS)),
    n_eves=st.integers(min_value=0, max_value=3),
    case=st.sampled_from(list(DistributionCase)),
)
def test_build_network_matches_scalar_layout(
    grid, fraction, n_panels, seed, n_cells, n_eves, case
):
    """The whole-array build equals the point-by-point one, bit for bit.

    The layouts of CELL_LAYOUTS are scaled from the 200 m grid to the drawn
    one, so every ring stays inside it. Both builds leave the generator in
    the same state, so UE placement and every later draw are the same.
    """
    scale = grid / 200.0
    radius = grid * fraction
    cfg = TopologyConfig(
        grid_side=grid,
        small_cell_count=n_cells,
        small_cell_offsets=tuple((dx * scale, dy * scale) for dx, dy in CELL_LAYOUTS[n_cells]),
        irs_per_cell=n_panels,
        irs_radius=radius,
        eavesdroppers_per_cell=n_eves,
        eve_radius=radius + 1.0,
        ue_count=10,
        distribution_case=case,
        cluster_size=5,
    )
    rng_array, rng_scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    topo = build_network(cfg, rng_array)
    cells, panels, eves = reference_model.scalar_layout(cfg, rng_scalar)
    _same_bits(topo.cell_xy, cells)
    _same_bits(topo.panel_xy, [point for _, point in panels])
    assert topo.panel_cell.tolist() == [cell for cell, _ in panels]
    _same_bits(topo.eve_xy, eves)
    _same_bits(topo.ue_xy, place_ues(cfg, topo, rng_scalar))
    assert rng_array.bit_generator.state == rng_scalar.bit_generator.state
    assert rng_array.random() == rng_scalar.random()


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e155])
def test_candidate_slots_at_extreme_scales_match_scalar_selection(scale):
    """The squared-distance pre-filter loses no slot when squares leave the
    normal range: a layout shrunk to 1e-160 m (squares subnormal) or grown to
    1e155 m (squares overflow), each radius exactly one panel's distance, and
    no radius, whose screen must pass every slot."""
    cfg = TopologyConfig(
        grid_side=200 * scale,
        small_cell_offsets=((-50 * scale, 0.0), (50 * scale, 0.0)),
        irs_radius=20 * scale,
        eve_radius=25 * scale,
        cluster_spread=35 * scale,
    )
    for seed in range(4):
        topo = build_network(cfg, np.random.default_rng(seed))
        _, ring_distances = reference_model.candidate_irs_distances(0, topo)
        for radius in [*ring_distances, None]:
            arms, offsets, distances = slots_with_hops(topo, radius)
            for u in range(cfg.ue_count):
                want = reference_model.candidate_irs_distances(u, topo, radius)
                lo, hi = offsets[u], offsets[u + 1]
                assert (arms[lo:hi].tolist(), distances[lo:hi].tolist()) == want


@pytest.mark.parametrize("side", ["square above, hypot at the radius", "square at or below, hypot above"])
def test_radius_band_is_decided_by_hypot(side):
    """A slot whose squared distance and math.hypot distance fall on opposite
    sides of the detection radius is decided by hypot, as the scalar
    selection decides it: a radius exactly at the hop keeps the slot though
    dx*dx + dy*dy rounds above radius*radius, and one a step below the hop
    drops it though the square rounds to at most radius*radius. The UE
    walks a fixed line until the rounding puts some slot in that case."""
    topo = build_network(TopologyConfig(), rng())
    px, py = topo.panel_xy.T.tolist()
    for k in range(400):
        ue = (40.0 + k * 0.3717, 95.0 + k * 0.0731)
        for dx, dy in zip((x - ue[0] for x in px), (y - ue[1] for y in py)):
            d = math.hypot(dx, dy)
            radius = d if side.startswith("square above") else math.nextafter(d, 0.0)
            if (dx * dx + dy * dy > radius * radius) == side.startswith("square above"):
                break
        else:
            continue
        break
    else:
        pytest.fail("no UE on the walk puts a slot in the case")
    topo = with_ue_xy(topo, [ue])
    want = reference_model.candidate_irs_distances(0, topo, radius)
    assert candidates(topo, radius) == [want[0]]
    assert want[0] != topo.rings[serving_cells(topo.ue_xy, topo)[0]].tolist()


def test_open_slot_is_decided_on_its_own_ue():
    """math.hypot decides an open slot on its own UE's hop. The last UE's ring
    panel lies a step beyond the radius by hypot though its square rounds to
    at most radius*radius; a ring's worth of UEs standing on that panel come
    first, so a hop taken from any of them would keep the panel."""
    topo = build_network(TopologyConfig(), rng())
    for k in range(400):
        ue = [40.0 + k * 0.3717, 95.0 + k * 0.0731]
        ring = topo.rings[serving_cells(np.array([ue]), topo)[0]].tolist()
        for panel in ring:
            dx, dy = (p - u for p, u in zip(topo.panel_xy[panel].tolist(), ue))
            radius = math.nextafter(math.hypot(dx, dy), 0.0)
            if dx * dx + dy * dy <= radius * radius:
                break
        else:
            continue
        break
    else:
        pytest.fail("no UE on the walk puts a ring panel in the case")
    topo = with_ue_xy(topo, [topo.panel_xy[panel]] * len(ring) + [ue])
    got = candidates(topo, radius)
    want = [reference_model.candidate_irs_distances(u, topo, radius)[0] for u in range(len(got))]
    assert got == want
    assert panel in got[0] and panel not in got[-1]


def _cells_only(cell_xy) -> NetworkTopology:
    """A topology of the given small cells and nothing else: all serving_cells reads."""
    return NetworkTopology(
        grid_side=1.0,
        cell_xy=np.array(cell_xy, dtype=float),
        panel_xy=np.empty((0, 2)),
        panel_cell=np.empty(0, dtype=np.int64),
        eve_xy=np.empty((0, 2)),
    )


def _nearest_by_hypot(xy, topo) -> list[int]:
    return distances(xy[:, None], topo.cell_xy).argmin(axis=1).tolist()


def _ulp(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Powers of two, so that scaled points on a bisector stay exactly on it: about
# 1, 3e-160 (squares subnormal), 9e-171 (squares 0) and 1e155 (squares inf).
SCALES = (1.0, 2.0**-530, 2.0**-565, 2.0**515)

# (cells, points, expected cell of each point or None where only hypot says):
# points on a bisector (ties go to the lower index), one ulp off it, on a
# cell centre, and offsets whose squares underflow or overflow.
SERVING_CASES = {
    f"bisector-{scale:.0e}": (
        [(50 * scale, 100 * scale), (150 * scale, 100 * scale)],
        [
            ((100 * scale, 37 * scale), 0),
            ((100 * scale, 100 * scale), 0),
            ((100 * scale, -63 * scale), 0),
            ((_ulp(100 * scale, -1), 37 * scale), None),
            ((_ulp(100 * scale, 1), 37 * scale), None),
            ((_ulp(100 * scale, -1), 100 * scale), 0),
            ((_ulp(100 * scale, 1), 100 * scale), 1),
        ],
    )
    for scale in SCALES
} | {
    f"centres-{scale:.0e}": (
        [(50 * scale, 100 * scale), (150 * scale, 100 * scale),
         (100 * scale, 150 * scale), (100 * scale, 50 * scale)],
        [
            ((100 * scale, 100 * scale), 0),  # four ways equidistant
            ((50 * scale, 100 * scale), 0),
            ((150 * scale, 100 * scale), 1),
            ((100 * scale, 150 * scale), 2),
            ((100 * scale, 50 * scale), 3),
            ((_ulp(150 * scale, 1), 100 * scale), 1),
            ((100 * scale, _ulp(50 * scale, -1)), 3),
        ],
    )
    for scale in SCALES
} | {
    "underflow": (
        [(0.0, 0.0), (1e-300, 0.0), (0.0, 1e-300)],
        [
            ((5e-324, 0.0), 0),
            ((5e-301, 0.0), 0),  # squares of both offsets underflow to 0
            ((5e-301, 5e-301), 0),
            ((_ulp(5e-301, 1), 0.0), 1),
            ((1e-300, 1e-300), None),
            ((-1e-310, 0.0), 0),
            ((0.0, 1e-300), 2),
        ],
    ),
    # the rounded squares order two cells against their hypot distances
    "squares-misordered": (
        [(60.78808382102325, 62.94631010669735), (7.487357064741498, 87.18582783265478),
         (52.794939827946834, 74.38393376394754)],
        [((0.0, 0.0), 0)],
    ),
    "squares-misordered-2": (
        [(52.794939827946834, 74.38393376394754), (67.46973606158966, 61.384932918553304)],
        [((0.0, 0.0), 1)],
    ),
    # 1.2e-162 squared rounds to 0, 1.6e-162 squared to the least subnormal
    "squares-misordered-subnormal": (
        [(1.2e-162, 1.2e-162), (1.6e-162, 0.0)],
        [((0.0, 0.0), 1)],
    ),
    "overflow": (
        [(-1e155, 0.0), (1e155, 0.0), (0.0, 1e300)],
        [
            ((0.0, 0.0), 0),  # both squares overflow to inf
            ((_ulp(0.0, 1), 0.0), None),
            ((1e154, 0.0), 1),
            ((0.0, 1e300), 2),
            ((0.0, 6e299), 2),
        ],
    ),
}


@pytest.mark.parametrize("cells, points", SERVING_CASES.values(), ids=SERVING_CASES.keys())
def test_serving_cells_match_hypot_argmin(cells, points):
    """The squared-distance screen gives the argmin of math.hypot distances
    for every point, ties to the lowest index, at every scale."""
    topo = _cells_only(cells)
    xy = np.array([p for p, _ in points])
    got = serving_cells(xy, topo).tolist()
    assert got == _nearest_by_hypot(xy, topo)
    for g, (_, want) in zip(got, points):
        assert want is None or g == want


@settings(max_examples=200, deadline=None)
@given(
    exponent=st.integers(min_value=-320, max_value=300),
    cells=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=6
    ),
    picks=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2), st.integers(-2, 2)),
        min_size=1,
        max_size=8,
    ),
)
def test_serving_cells_at_midpoints_match_hypot_argmin(exponent, cells, picks):
    """Midpoints of two cells, each coordinate moved 0-2 ulps, on a lattice of
    cells scaled by 10**exponent: the screen agrees with math.hypot's argmin."""
    scale = 10.0**exponent
    cell_xy = [(x * scale, y * scale) for x, y in cells]
    points = []
    for i, j, kx, ky in picks:
        (ax, ay), (bx, by) = cell_xy[i % len(cells)], cell_xy[j % len(cells)]
        points.append((_ulp(ax / 2 + bx / 2, kx), _ulp(ay / 2 + by / 2, ky)))
    topo = _cells_only(cell_xy)
    xy = np.array(points)
    assert serving_cells(xy, topo).tolist() == _nearest_by_hypot(xy, topo)
