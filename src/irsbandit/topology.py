"""Spatial layout of the network.

Macro BS at the grid center, small cells at fixed offsets, IRS panels on an
evenly spaced ring around each small cell, eavesdroppers at random angles on
a wider ring, and UEs placed uniformly or in Gaussian clusters. Everything
is built from an explicit numpy Generator, so the same seed reproduces the
same layout bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
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
    same cell-major order.
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
    def rings(self) -> tuple[tuple[int, ...], ...]:
        """Global panel indices of each small cell's ring, in panel order."""
        return tuple(
            tuple(i for i, (ci, _) in enumerate(self.irs_panels) if ci == cell)
            for cell in range(len(self.small_cells))
        )

    def irs_position(self, irs_index: int) -> Position:
        return self.irs_panels[irs_index][1]

    def irs_cell(self, irs_index: int) -> int:
        return self.irs_panels[irs_index][0]


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
                f"small cell {i} at ({cell.x}, {cell.y}) leaves the grid or "
                f"its IRS ring does"
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
                "clustered placement needs ue_count divisible by cluster_size"
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


def serving_cell(ue: Position, topo: NetworkTopology) -> int:
    """Index of the nearest small cell; ties go to the lowest index."""
    if not topo.small_cells:
        raise ValueError("topology has no small cells")
    distances = [ue.distance_to(cell) for cell in topo.small_cells]
    return distances.index(min(distances))


def candidate_irs_distances(
    ue_index: int, topo: NetworkTopology, detection_radius: float | None = None
) -> tuple[list[int], list[float]]:
    """candidate_irs_set together with each candidate's distance to the UE.

    Each distance is the one the detection-radius filter compares, computed
    once, so a caller that also needs the panel-to-UE hop length (the link
    budget) reuses it instead of measuring the hop again.
    """
    ue = topo.ues[ue_index]
    ring = topo.rings[serving_cell(ue, topo)]
    panels = topo.irs_panels
    x, y = ue.x, ue.y  # panels[i][1].distance_to(ue), inlined: the hot part of set-up
    distances = [math.hypot(panels[i][1].x - x, panels[i][1].y - y) for i in ring]
    if detection_radius is not None:
        near = [k for k, d in enumerate(distances) if d <= detection_radius]
        if near:
            return [ring[k] for k in near], [distances[k] for k in near]
    return list(ring), distances


def candidate_irs_set(
    ue_index: int, topo: NetworkTopology, detection_radius: float | None = None
) -> list[int]:
    """Global indices of the IRS panels the UE may associate with.

    The candidate set is the serving cell's whole ring, in panel order.
    When detection_radius is set, panels farther than that from the UE are
    dropped; if the filter would empty the set, the full ring stands in so
    the agent always has at least one arm.
    """
    return candidate_irs_distances(ue_index, topo, detection_radius)[0]
