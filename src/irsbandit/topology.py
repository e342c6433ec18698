"""Spatial layout of the network.

Small cells at fixed offsets from the grid center, IRS panels on an evenly
spaced ring around each small cell, eavesdroppers at random angles on a
wider ring, and UEs placed uniformly or in Gaussian clusters. Everything is
built from an explicit numpy Generator, so the same seed reproduces the
same layout bit for bit.

Every position is an (N, 2) float array, built and queried in whole-array
passes: candidate_slots selects every UE's candidate panels in one pass.
Differences, comparisons and reductions run as numpy operations, which
round exactly as Python floats do; hypot, cos and sin stay math's, applied
element by element through `elementwise`, because numpy's own may differ in
the last bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import DistributionCase, TopologyConfig


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Coordinates and identities of every node, as (N, 2) float arrays.

    panel_xy is cell-major: the panels of cell 0 first, then cell 1, and
    so on, each ring in increasing-angle order; panel_cell gives each
    panel's small cell. eve_xy follows the same cell-major order. ue_xy is
    empty until place_ues has run (see build_network).
    """

    grid_side: float
    cell_xy: np.ndarray
    panel_xy: np.ndarray
    panel_cell: np.ndarray
    eve_xy: np.ndarray
    ue_xy: np.ndarray = dataclasses.field(default_factory=lambda: np.empty((0, 2)))

    @property
    def rings(self) -> np.ndarray:
        """Global panel indices of each small cell's ring, in panel order.

        A (cells, irs_per_cell) int64 array: row c lists cell c's panels.
        """
        order = np.argsort(self.panel_cell, kind="stable")
        return order.reshape(len(self.cell_xy), -1)


def elementwise(f, a: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """f applied to each element of equally shaped arrays, as a float array.

    Exists for math's hypot, cos, sin, log10 and log2, whose numpy
    counterparts may round differently in the last bit. The arrays reach
    map as memoryviews, so no list of Python floats is ever held. A call
    with one array builds no list of views and a 1-D one no reshape:
    outcomes makes such calls every period.
    """
    flat = a.ravel().data
    items = map(f, flat, *[b.ravel().data for b in more]) if more else map(f, flat)
    out = np.fromiter(items, dtype=float, count=a.size)
    return out if a.ndim == 1 else out.reshape(a.shape)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """math.hypot distances between (..., 2) coordinate arrays, broadcast."""
    return elementwise(math.hypot, a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


def _on_circles(centers: np.ndarray, radius: float, angles: np.ndarray) -> np.ndarray:
    """Cell-major (N, 2) points at angles (broadcast to (cells, k)) around each center."""
    x = centers[:, 0:1] + radius * elementwise(math.cos, angles)
    y = centers[:, 1:2] + radius * elementwise(math.sin, angles)
    return np.stack([x.ravel(), y.ravel()], axis=1)


def build_topology(cfg: TopologyConfig, rng: np.random.Generator) -> NetworkTopology:
    """Construct small cell, IRS and eavesdropper positions (UEs placed separately).

    Small cell i sits at the grid center + small_cell_offsets[i] (TopologyConfig
    has checked that its ring fits the grid); panel k of a cell sits at angle
    2*pi*k/irs_per_cell on the irs_radius circle. Eavesdropper angles are one
    (cells, eavesdroppers_per_cell) block of uniform draws.
    """
    cells = cfg.grid_side / 2.0 + np.array(cfg.small_cell_offsets, dtype=float)
    n = cfg.irs_per_cell
    angles = 2.0 * math.pi * np.arange(n) / n
    eve_angles = rng.uniform(
        0.0, 2.0 * math.pi, size=(len(cells), cfg.eavesdroppers_per_cell)
    )
    return NetworkTopology(
        grid_side=cfg.grid_side,
        cell_xy=cells,
        panel_xy=_on_circles(cells, cfg.irs_radius, angles),
        panel_cell=np.repeat(np.arange(len(cells)), n),
        eve_xy=_on_circles(cells, cfg.eve_radius, eve_angles),
    )


def place_ues(
    cfg: TopologyConfig, topo: NetworkTopology, rng: np.random.Generator
) -> np.ndarray:
    """Draw UE positions for one replication, as a (ue_count, 2) array.

    Random case: ue_count i.i.d. uniform points on the grid. Clustered
    case: ue_count/cluster_size cluster centers drawn uniformly (TopologyConfig
    has checked that the division is exact), members offset by an isotropic
    Gaussian (std cluster_spread) and clamped to the grid.
    """
    side = topo.grid_side
    if cfg.distribution_case is DistributionCase.RANDOM:
        return rng.uniform(0.0, side, size=(cfg.ue_count, 2))
    n_clusters = cfg.ue_count // cfg.cluster_size
    centers = rng.uniform(0.0, side, size=(n_clusters, 2))
    # + 0.0 makes a spread of -0.0 the 0.0 that numpy's normal accepts
    spread = cfg.cluster_spread + 0.0
    offsets = rng.normal(0.0, spread, size=(n_clusters, cfg.cluster_size, 2))
    return np.clip(centers[:, None, :] + offsets, 0.0, side).reshape(-1, 2)


def build_network(cfg: TopologyConfig, rng: np.random.Generator) -> NetworkTopology:
    """build_topology followed by place_ues, on one stream."""
    topo = build_topology(cfg, rng)
    return dataclasses.replace(topo, ue_xy=place_ues(cfg, topo, rng))


def serving_cells(xy: np.ndarray, topo: NetworkTopology) -> np.ndarray:
    """Nearest small cell of each (N, 2) point; ties go to the lowest index.

    Squared distances screen the cells: a cell whose square is within a
    relative margin of 1e-12 (or a floor of 1e-300, for squares that
    underflow) of its row's least square may be nearest by hypot, and no
    other can. A row with one such cell takes it, its least square;
    math.hypot decides the rows with more.
    """
    dx = xy[:, 0:1] - topo.cell_xy[:, 0]
    dy = xy[:, 1:2] - topo.cell_xy[:, 1]
    with np.errstate(over="ignore"):
        square = dx * dx + dy * dy
        best = square.argmin(axis=1)
        bound = square[np.arange(len(best)), best] * (1.0 + 1e-12)
    near = square <= np.maximum(bound, 1e-300)[:, None]
    if np.count_nonzero(near) > len(best):
        tied = np.count_nonzero(near, axis=1) > 1
        best[tied] = elementwise(math.hypot, dx[tied], dy[tied]).argmin(axis=1)
    return best


def candidate_slots(
    topo: NetworkTopology, detection_radius: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every UE's candidate panels, flattened into slots.

    UE u's k-th candidate is slot offsets[u] + k, and arms[s] is the slot's
    global panel index. A UE's candidates are its serving cell's ring (see
    serving_cells), in panel order, without the panels whose math.hypot
    distance from the UE (panel minus UE, as every hop is taken) exceeds
    detection_radius (None keeps every panel); if that would empty the set
    the full ring stands in, so every UE keeps at least one arm. No hop
    length is kept: the channel takes a slot's when a run reads it.

    At most three (UE, ring panel) grids are held at once: the ring, the
    squared distances, built in place, and the y part while it is added.
    No difference grid is kept; the slots left open take theirs anew.
    """
    radius = math.inf if detection_radius is None else detection_radius
    ring = topo.rings[serving_cells(topo.ue_xy, topo)]
    px, py = np.ascontiguousarray(topo.panel_xy.T)
    ux, uy = topo.ue_xy.T
    square = px.take(ring) - ux[:, None]
    dy = py.take(ring)
    dy -= uy[:, None]
    # Squared distances decide every slot whose square lies outside a relative
    # margin of the radius's square on either side; the margin covers the
    # rounding of dx*dx + dy*dy, of radius*radius and of hypot many times
    # over. A square outside [1e-300, 1e300] may have underflowed or
    # overflowed, so it decides nothing (a radius whose square overflows
    # keeps every square in that range, one whose square underflows none).
    # math.hypot decides the slots left open, on their differences taken anew.
    r2 = radius * radius
    with np.errstate(over="ignore", under="ignore"):
        square *= square
        square += np.multiply(dy, dy, out=dy)
    del dy
    keep = square < r2 * (1.0 - 1e-12)
    open_ = (square <= r2 * (1.0 + 1e-12)) & ~keep
    open_ |= ~((square >= 1e-300) & (square <= 1e300))
    flat = np.flatnonzero(open_)
    panel, ue = ring.take(flat), flat // ring.shape[1]
    np.put(keep, flat, elementwise(math.hypot, px[panel] - ux[ue], py[panel] - uy[ue]) <= radius)
    keep[~keep.any(axis=1)] = True  # the full ring stands in
    offsets = np.zeros(len(ring) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=offsets[1:])
    return ring[keep], offsets
