import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsbandit.config import DistributionCase, TopologyConfig
from irsbandit.topology import (
    Position,
    build_network,
    build_topology,
    candidate_irs_set,
    candidate_slots,
    place_ues,
    serving_cell,
    with_ues,
)

import reference_model


def rng(seed=0):
    return np.random.default_rng(seed)


class TestBuildTopology:
    def test_default_layout_counts(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng())
        assert topo.macro_bs == Position(100.0, 100.0)
        assert len(topo.small_cells) == 2
        assert len(topo.irs_panels) == 16
        assert len(topo.eavesdroppers) == 4

    def test_sixteen_panels_exactly_on_ring(self):
        # 2 cells x 8 panels, each exactly 20 m from its cell center
        cfg = TopologyConfig(irs_per_cell=8, irs_radius=20.0)
        topo = build_topology(cfg, rng())
        assert len(topo.irs_panels) == 16
        for cell_index, pos in topo.irs_panels:
            d = pos.distance_to(topo.small_cells[cell_index])
            assert abs(d - 20.0) < 1e-9

    def test_four_panels_axis_aligned(self):
        # cell at grid center, ring 20: panels at (+-20, 0), (0, +-20)
        cfg = TopologyConfig(
            small_cell_count=1,
            small_cell_offsets=((0.0, 0.0),),
            irs_per_cell=4,
            irs_radius=20.0,
        )
        topo = build_topology(cfg, rng())
        cx, cy = topo.small_cells[0].x, topo.small_cells[0].y
        rel = [(p.x - cx, p.y - cy) for _, p in topo.irs_panels]
        expected = [(20.0, 0.0), (0.0, 20.0), (-20.0, 0.0), (0.0, -20.0)]
        for (gx, gy), (ex, ey) in zip(rel, expected):
            assert math.isclose(gx, ex, abs_tol=1e-9)
            assert math.isclose(gy, ey, abs_tol=1e-9)

    def test_same_seed_bit_identical(self):
        cfg = TopologyConfig()
        a = build_topology(cfg, rng(7))
        b = build_topology(cfg, rng(7))
        assert a == b

    def test_offsets_outside_grid_rejected(self):
        cfg = TopologyConfig(small_cell_offsets=((-95.0, 0.0), (50.0, 0.0)))
        with pytest.raises(ValueError, match="leaves the grid"):
            build_topology(cfg, rng())

    def test_ring_clipping_grid_rejected(self):
        # cell inside, but ring pokes out
        cfg = TopologyConfig(
            small_cell_count=1,
            small_cell_offsets=((-90.0, 0.0),),
            irs_radius=20.0,
        )
        with pytest.raises(ValueError):
            build_topology(cfg, rng())

    def test_eavesdroppers_outside_ring(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(3))
        for i, eve in enumerate(topo.eavesdroppers):
            cell = topo.small_cells[i // cfg.eavesdroppers_per_cell]
            assert eve.distance_to(cell) > cfg.irs_radius


class TestPlaceUes:
    def test_random_points_inside_grid(self):
        cfg = TopologyConfig(ue_count=20)
        topo = build_topology(cfg, rng(1))
        ues = place_ues(cfg, topo, rng(1))
        assert len(ues) == 20
        for ue in ues:
            assert 0.0 <= ue.x <= cfg.grid_side
            assert 0.0 <= ue.y <= cfg.grid_side

    def test_clustered_counts(self):
        cfg = TopologyConfig(
            ue_count=20,
            cluster_size=10,
            distribution_case=DistributionCase.CLUSTERED,
        )
        topo = build_topology(cfg, rng(2))
        ues = place_ues(cfg, topo, rng(2))
        assert len(ues) == 20  # exactly 2 clusters of 10

    def test_zero_spread_collapses_clusters(self):
        cfg = TopologyConfig(
            ue_count=20,
            cluster_size=10,
            cluster_spread=0.0,
            distribution_case=DistributionCase.CLUSTERED,
        )
        topo = build_topology(cfg, rng(2))
        ues = place_ues(cfg, topo, rng(2))
        first = set((u.x, u.y) for u in ues[:10])
        second = set((u.x, u.y) for u in ues[10:])
        assert len(first) == 1 and len(second) == 1

    def test_indivisible_cluster_rejected(self):
        cfg = TopologyConfig(
            ue_count=25,
            cluster_size=10,
            distribution_case=DistributionCase.CLUSTERED,
        )
        topo = build_topology(cfg, rng(2))
        with pytest.raises(ValueError, match="divisible"):
            place_ues(cfg, topo, rng(2))

    def test_same_seed_identical_placement(self):
        cfg = TopologyConfig(distribution_case=DistributionCase.CLUSTERED)
        topo = build_topology(cfg, rng(5))
        assert place_ues(cfg, topo, rng(9)) == place_ues(cfg, topo, rng(9))


class TestServingCell:
    def test_ue_on_cell_position(self):
        topo = build_topology(TopologyConfig(), rng())
        assert serving_cell(topo.small_cells[1], topo) == 1

    def test_equidistant_tie_goes_low(self):
        topo = build_topology(TopologyConfig(), rng())
        # (100, y) is equidistant from cells at (50, 100) and (150, 100)
        assert serving_cell(Position(100.0, 37.0), topo) == 0

    def test_corner_nearest_cell_one(self):
        topo = build_topology(TopologyConfig(), rng())
        assert serving_cell(Position(199.0, 199.0), topo) == 1


class TestCandidateSet:
    def test_cell_zero_gets_first_ring(self):
        cfg = TopologyConfig()
        topo = build_network(cfg, rng(4))
        topo = with_ues(topo, (Position(40.0, 90.0),))
        assert candidate_irs_set(0, topo) == list(range(8))

    def test_cells_partition_panels(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ues(topo, (Position(40.0, 90.0), Position(160.0, 90.0)))
        a = candidate_irs_set(0, topo)
        b = candidate_irs_set(1, topo)
        assert set(a).isdisjoint(b)
        assert sorted(a + b) == list(range(len(topo.irs_panels)))

    def test_same_cell_same_candidates(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ues(topo, (Position(40.0, 90.0), Position(60.0, 120.0)))
        assert candidate_irs_set(0, topo) == candidate_irs_set(1, topo)

    def test_detection_radius_filters_but_never_empties(self):
        cfg = TopologyConfig()
        topo = build_topology(cfg, rng(4))
        topo = with_ues(topo, (Position(70.5, 100.0),))
        near = candidate_irs_set(0, topo, detection_radius=5.0)
        assert near == [0]  # panel 0 sits at (70, 100)
        far = candidate_irs_set(0, topo, detection_radius=0.001)
        assert far == list(range(8))  # filter would empty: full ring stands in


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
    for cell_index, pos in topo.irs_panels:
        assert abs(pos.distance_to(topo.small_cells[cell_index]) - radius) < 1e-9
    angles = sorted(
        math.atan2(p.y - topo.small_cells[c].y, p.x - topo.small_cells[c].x) % (2 * math.pi)
        for c, p in topo.irs_panels
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
    assert len(ues) == cfg.ue_count
    assert all(0.0 <= u.x <= cfg.grid_side and 0.0 <= u.y <= cfg.grid_side for u in ues)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_candidate_union_is_partition(seed):
    cfg = TopologyConfig(ue_count=10)
    topo = build_network(cfg, np.random.default_rng(seed))
    seen = []
    for u in range(cfg.ue_count):
        seen.append(frozenset(candidate_irs_set(u, topo)))
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
    topo = with_ues(topo, topo.ues + tuple(Position(100.0, y) for y in tie_ys))
    full = [reference_model.candidate_irs_distances(u, topo) for u in range(len(topo.ues))]
    detection_radius = {
        "none": None,
        "drawn": radius,
        "panel_distance": full[0][1][int(radius) % n_panels],
        "below_all": min(min(d) for _, d in full) / 2,
    }[radius_mode]
    if radius_mode == "below_all" and detection_radius == 0.0:
        detection_radius = None  # a UE on a panel: nothing lies below it

    arms, offsets, distances = candidate_slots(topo, detection_radius)
    assert arms.dtype == offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == len(arms) == len(distances)
    for u, ue in enumerate(topo.ues):
        want_arms, want_distances = reference_model.candidate_irs_distances(
            u, topo, detection_radius
        )
        lo, hi = offsets[u], offsets[u + 1]
        assert arms[lo:hi].tolist() == want_arms
        assert [d.hex() for d in distances[lo:hi].tolist()] == [
            d.hex() for d in want_distances
        ]
        assert candidate_irs_set(u, topo, detection_radius) == want_arms
        assert serving_cell(ue, topo) == reference_model.serving_cell(ue, topo)

    for u in range(cfg.ue_count, len(topo.ues)):
        y = topo.ues[u].y
        low = 0 if n_cells < 4 or y <= 100.0 else 2
        assert serving_cell(topo.ues[u], topo) == low
    if radius_mode == "panel_distance":
        assert arms[offsets[0] : offsets[1]].tolist().count(
            full[0][0][int(radius) % n_panels]
        ) == 1
    if radius_mode == "below_all" and detection_radius is not None:
        assert (np.diff(offsets) == n_panels).all()
