"""Test-only reference implementations the product kernels are pinned to.

Each oracle is the original formulation of a kernel that now runs on the
compiled frontier engine, on shrinking index vectors or on one batched
draw; the property suites assert the two agree exactly, including the work
counts the Fig. 14 cost proxy is built from and the fusion draws the
device RNG makes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hardware.architecture import HardwareConfig
from repro.hardware.fusion import FusionDevice
from repro.hardware.rsg import MergeResult
from repro.online.percolation import PercolatedLattice
from repro.online.timelike import (
    TEMPORAL_FANOUT,
    LayerDemand,
    OnlineReshaper,
    ReshapeMetrics,
)
from repro.utils.gridgeom import Coord2D


def corridor_connected_scalar(
    lattice: PercolatedLattice,
    sources: list[Coord2D],
    targets: set[Coord2D],
    row_range: tuple[int, int],
    col_range: tuple[int, int],
) -> tuple[bool, int]:
    """Per-cell deque BFS twin of ``repro.online.modular._corridor_connected``.

    Starts from every in-window alive source site (in path order), walks
    usable bonds in :meth:`PercolatedLattice.neighbors` order without
    leaving the window, and stops at the first popped target site.
    Returns (reached, sites popped).
    """

    def inside(coord: Coord2D) -> bool:
        return (
            row_range[0] <= coord[0] < row_range[1]
            and col_range[0] <= coord[1] < col_range[1]
        )

    queue: deque[Coord2D] = deque()
    seen: set[Coord2D] = set()
    for coord in sources:
        if inside(coord) and lattice.sites[coord]:
            queue.append(coord)
            seen.add(coord)
    visited = 0
    while queue:
        current = queue.popleft()
        visited += 1
        if current in targets:
            return True, visited
        for neighbor in lattice.neighbors(current):
            if neighbor not in seen and inside(neighbor):
                seen.add(neighbor)
                queue.append(neighbor)
    return False, visited


def merge_layers_masks(config: HardwareConfig, device: FusionDevice) -> MergeResult:
    """Full-mask twin of ``repro.hardware.rsg.RSGArray.merge_layers``.

    Every retry round recomputes ``(n, n)`` masks of the pending,
    attemptable, exhausted, succeeded and failed sites; attempts are drawn
    for the attemptable sites in row-major order.
    """
    n = config.rsl_size
    star_degree = config.resource_state.max_degree
    merges = config.merged_rsls_per_layer - 1

    alive = np.ones((n, n), dtype=bool)
    degrees = np.full((n, n), star_degree, dtype=np.int64)
    merge_fusions = 0
    for _ in range(merges):
        joiner = np.full((n, n), star_degree, dtype=np.int64)
        pending = alive.copy()
        while pending.any():
            attemptable = pending & (degrees >= 1) & (joiner >= 1)
            exhausted = pending & ~attemptable
            alive[exhausted] = False
            pending[exhausted] = False
            count = int(attemptable.sum())
            if count == 0:
                break
            outcomes = device.attempt_batch(count, "root-leaf")
            merge_fusions += count
            success = np.zeros((n, n), dtype=bool)
            success[attemptable] = outcomes
            failure = attemptable & ~success
            degrees[success] += joiner[success] - 1
            pending[success] = False
            degrees[failure] -= 1
            joiner[failure] -= 1
    return MergeResult(alive=alive, degrees=degrees, merge_fusions=merge_fusions)


def establish_connections_loop(
    reshaper: OnlineReshaper, demand: LayerDemand, metrics: ReshapeMetrics
) -> bool:
    """Per-connection twin of ``OnlineReshaper._establish_connections``.

    One ``attempt_batch(TEMPORAL_FANOUT, "temporal")`` per demanded
    connection; the layer qualifies only if every connection had at least
    one successful fusion.  The demand must fit the virtual layer.
    """
    total = demand.adjacent_connections + demand.cross_connections
    ok = True
    for _ in range(total):
        outcomes = reshaper.device.attempt_batch(TEMPORAL_FANOUT, "temporal")
        if not outcomes.any():
            ok = False
    if not ok:
        metrics.connection_failures += 1
    return ok
