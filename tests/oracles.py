"""Test-only reference implementations the product kernels are pinned to.

Each oracle is the original per-cell formulation of a kernel that now runs
on the compiled frontier engine; the property suites assert the two agree
exactly, including the work counts the Fig. 14 cost proxy is built from.
"""

from __future__ import annotations

from collections import deque

from repro.online.percolation import PercolatedLattice
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
