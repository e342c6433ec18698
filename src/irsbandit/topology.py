"""Spatial layout of the network.

Macro BS at the grid center, small cells at fixed offsets, IRS panels on an
evenly spaced ring around each small cell, eavesdroppers at random angles on
a wider ring, and UEs placed uniformly or in Gaussian clusters. Everything
is built from an explicit numpy Generator, so the same seed reproduces the
same layout bit for bit.

Geometry queries work on whole arrays: NetworkTopology caches the
coordinates of its cells, panels and eavesdroppers as (N, 2) arrays, and
candidate_slots selects every UE's candidate panels in one pass. Differences, comparisons and reductions
run as numpy operations, which round exactly as Python floats do; hypot
stays math.hypot, applied element by element through `elementwise`, because
numpy's own hypot may differ in the last bit.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DistributionCase, TopologyConfig


@dataclass(frozen=True)
class Position:
    """A point on the grid, in meters."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class NetworkTopology:
    """Positions and identities of every node.

    irs_panels is cell-major: the panels of cell 0 first, then cell 1, and
    so on, each ring in increasing-angle order. Eavesdroppers follow the
    same cell-major order. cell_xy, panel_xy and eve_xy hold the same
    positions as (N, 2) float arrays, in the same order; panel_cell and
    rings give the panel-to-cell map as integer arrays.
    """

    grid_side: float
    macro_bs: Position
    small_cells: tuple[Position, ...]
    irs_panels: tuple[tuple[int, Position], ...]
    eavesdroppers: tuple[Position, ...]
    ues: tuple[Position, ...] = ()

    @property
    def irs_per_cell(self) -> int:
        return len(self.irs_panels) // len(self.small_cells)

    @functools.cached_property
    def panel_cell(self) -> np.ndarray:
        """The small cell of each panel, as an int64 array."""
        return np.array([ci for ci, _ in self.irs_panels], dtype=np.int64)

    @property
    def rings(self) -> np.ndarray:
        """Global panel indices of each small cell's ring, in panel order.

        A (cells, irs_per_cell) int64 array: row c lists cell c's panels.
        """
        order = np.argsort(self.panel_cell, kind="stable")
        return order.reshape(len(self.small_cells), -1)

    @functools.cached_property
    def cell_xy(self) -> np.ndarray:
        return _xy(self.small_cells)

    @functools.cached_property
    def panel_xy(self) -> np.ndarray:
        return _xy([pos for _, pos in self.irs_panels])

    @functools.cached_property
    def eve_xy(self) -> np.ndarray:
        return _xy(self.eavesdroppers)

    def irs_position(self, irs_index: int) -> Position:
        return self.irs_panels[irs_index][1]

    def irs_cell(self, irs_index: int) -> int:
        return self.irs_panels[irs_index][0]


def _xy(points) -> np.ndarray:
    """(N, 2) float array of a sequence of points' coordinates."""
    coords = itertools.chain.from_iterable((p.x, p.y) for p in points)
    return np.fromiter(coords, dtype=float, count=2 * len(points)).reshape(-1, 2)


def elementwise(f, a: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """f applied to each element of equally shaped arrays, as a float array.

    Exists for math's hypot, log10, log2 and pow, whose numpy counterparts
    may round differently in the last bit. The arrays reach map as
    memoryviews, so no list of Python floats is ever held. A call with one
    array builds no list of views and a 1-D one no reshape: outcomes makes
    such calls every period.
    """
    flat = a.ravel().data
    items = map(f, flat, *[b.ravel().data for b in more]) if more else map(f, flat)
    out = np.fromiter(items, dtype=float, count=a.size)
    return out if a.ndim == 1 else out.reshape(a.shape)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Position.distance_to between (..., 2) coordinate arrays, broadcast, bit for bit."""
    return elementwise(math.hypot, a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def build_topology(cfg: TopologyConfig, rng: np.random.Generator) -> NetworkTopology:
    """Construct BS, IRS, and eavesdropper positions (UEs placed separately).

    Small cell i sits at grid center + small_cell_offsets[i]; panel k of a
    cell sits at angle 2*pi*k/irs_per_cell on the irs_radius circle.
    Raises ValueError for offsets that push a small cell or any part of its
    IRS ring outside the grid.
    """
    side = cfg.grid_side
    center = Position(side / 2.0, side / 2.0)

    cells = []
    for i, (dx, dy) in enumerate(cfg.small_cell_offsets):
        cell = Position(center.x + dx, center.y + dy)
        lo_x, hi_x = cell.x - cfg.irs_radius, cell.x + cfg.irs_radius
        lo_y, hi_y = cell.y - cfg.irs_radius, cell.y + cfg.irs_radius
        if lo_x < 0 or lo_y < 0 or hi_x > side or hi_y > side:
            raise ValueError(
                f"small_cell_offsets: small cell {i} at ({cell.x}, {cell.y}) "
                f"leaves the grid or its IRS ring does"
            )
        cells.append(cell)

    panels = []
    for ci, cell in enumerate(cells):
        for k in range(cfg.irs_per_cell):
            angle = 2.0 * math.pi * k / cfg.irs_per_cell
            panels.append(
                (
                    ci,
                    Position(
                        cell.x + cfg.irs_radius * math.cos(angle),
                        cell.y + cfg.irs_radius * math.sin(angle),
                    ),
                )
            )

    eves = []
    for cell in cells:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=cfg.eavesdroppers_per_cell)
        for angle in angles:
            eves.append(
                Position(
                    cell.x + cfg.eve_radius * math.cos(angle),
                    cell.y + cfg.eve_radius * math.sin(angle),
                )
            )

    return NetworkTopology(
        grid_side=side,
        macro_bs=center,
        small_cells=tuple(cells),
        irs_panels=tuple(panels),
        eavesdroppers=tuple(eves),
    )


def place_ues(
    cfg: TopologyConfig, topo: NetworkTopology, rng: np.random.Generator
) -> tuple[Position, ...]:
    """Draw UE positions for one replication.

    Random case: ue_count i.i.d. uniform points on the grid. Clustered
    case: ue_count/cluster_size cluster centers drawn uniformly, members
    offset by an isotropic Gaussian (std cluster_spread) and clamped to
    the grid.
    """
    side = topo.grid_side
    if cfg.distribution_case is DistributionCase.RANDOM:
        points = rng.uniform(0.0, side, size=(cfg.ue_count, 2))
    else:
        if cfg.ue_count % cfg.cluster_size != 0:
            raise ValueError(
                "ue_count: clustered placement needs it divisible by cluster_size"
            )
        n_clusters = cfg.ue_count // cfg.cluster_size
        centers = rng.uniform(0.0, side, size=(n_clusters, 2))
        offsets = rng.normal(
            0.0, cfg.cluster_spread, size=(n_clusters, cfg.cluster_size, 2)
        )
        points = np.clip(centers[:, None, :] + offsets, 0.0, side)
        points = points.reshape(-1, 2)
    return tuple(Position(float(p[0]), float(p[1])) for p in points)


def with_ues(topo: NetworkTopology, ues: tuple[Position, ...]) -> NetworkTopology:
    return dataclasses.replace(topo, ues=tuple(ues))


def build_network(cfg: TopologyConfig, rng: np.random.Generator) -> NetworkTopology:
    """build_topology followed by place_ues, on one stream."""
    topo = build_topology(cfg, rng)
    return with_ues(topo, place_ues(cfg, topo, rng))


def _nearest_cells(xy: np.ndarray, topo: NetworkTopology) -> np.ndarray:
    """Nearest small cell of each (N, 2) point; argmin keeps the first, lowest, index."""
    return distances(xy[:, None], topo.cell_xy).argmin(axis=1)


def serving_cell(ue: Position, topo: NetworkTopology) -> int:
    """Index of the nearest small cell; ties go to the lowest index."""
    if not topo.small_cells:
        raise ValueError("topology has no small cells")
    return int(_nearest_cells(_xy((ue,)), topo)[0])


def candidate_slots(
    topo: NetworkTopology, detection_radius: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every UE's candidate panels, flattened into slots, with their distances.

    UE u's k-th candidate is slot offsets[u] + k: arms[s] is the slot's
    global panel index and distances[s] its panel-to-UE distance, the one
    the detection-radius filter compared (also the IRS -> UE hop length).
    A UE's candidates are its serving cell's ring (see serving_cell), in
    panel order; when detection_radius is set, panels farther than that are
    dropped, and if that would empty the set the full ring stands in, so
    every UE keeps at least one arm.
    """
    ues = _xy(topo.ues)
    ring = topo.rings[_nearest_cells(ues, topo)]
    d = distances(topo.panel_xy[ring], ues[:, None])
    if detection_radius is None:
        keep = np.ones(d.shape, dtype=bool)
    else:
        keep = d <= detection_radius
        keep[~keep.any(axis=1)] = True
    offsets = np.zeros(len(ues) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=offsets[1:])
    return ring[keep], offsets, d[keep]


def candidate_irs_set(
    ue_index: int, topo: NetworkTopology, detection_radius: float | None = None
) -> list[int]:
    """Global indices of the IRS panels UE ue_index may associate with.

    The UE's slots of candidate_slots, which states the selection rule.
    """
    u = range(len(topo.ues))[ue_index]
    arms, offsets, _ = candidate_slots(topo, detection_radius)
    return arms[offsets[u] : offsets[u + 1]].tolist()
