"""In-layer routing on the virtual hardware grid.

Spatial edges of the FlexLattice IR join 4-adjacent nodes, so connecting two
arbitrary cells on a layer lays down a wire of ancilla nodes between them
(measured in X/Y depending on parity, per Section 6.3).  The router is a
plain BFS over free cells — the optimization-relevant behaviour is *which*
cells are free, which the mapper controls.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import lru_cache

from repro.utils.gridgeom import Coord2D, grid_neighbors4, iter_grid


class LayerGrid:
    """Occupancy of one virtual-hardware layer."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.cells: dict[Coord2D, object] = {}

    def is_free(self, cell: Coord2D) -> bool:
        return cell not in self.cells

    def occupy(self, cell: Coord2D, owner: object) -> None:
        if cell in self.cells:
            raise ValueError(f"cell {cell} already occupied by {self.cells[cell]!r}")
        self.cells[cell] = owner

    def release(self, cell: Coord2D) -> None:
        self.cells.pop(cell, None)

    def nearest_free(
        self,
        anchors: list[Coord2D],
        tier: Callable[[Coord2D], int | None] | None = None,
    ) -> Coord2D | None:
        """The free cell minimizing ``(tier, total Manhattan distance to
        anchors, row-major index)``, in one pass over the cells.

        ``tier`` ranks preference classes (lower is better) and skips cells
        it maps to ``None``; without it every free cell ranks equal.  With
        no anchors and no tier, returns the first free cell in row-major
        order.  ``None`` if no cell qualifies.
        """
        occupied = self.cells
        best: Coord2D | None = None
        best_rank = best_cost = 0
        for cell in _row_major(self.width):
            if cell in occupied:
                continue
            rank = 0 if tier is None else tier(cell)
            if rank is None or (best is not None and rank > best_rank):
                continue
            row, col = cell
            cost = 0
            for anchor_row, anchor_col in anchors:
                cost += abs(row - anchor_row) + abs(col - anchor_col)
            if best is None or rank < best_rank or cost < best_cost:
                best, best_rank, best_cost = cell, rank, cost
        return best


@lru_cache(maxsize=32)
def _row_major(width: int) -> tuple[Coord2D, ...]:
    return tuple(iter_grid(width))


@lru_cache(maxsize=32)
def _neighbor_table(width: int) -> dict[Coord2D, tuple[Coord2D, ...]]:
    """Each cell's in-bounds 4-neighbours, in ``grid_neighbors4`` order."""
    return {cell: tuple(grid_neighbors4(cell, width)) for cell in _row_major(width)}


def route(grid: LayerGrid, start: Coord2D, goal: Coord2D) -> list[Coord2D] | None:
    """Shortest wire of *free* cells connecting ``start`` and ``goal``.

    ``start`` and ``goal`` are occupied endpoints (the nodes being joined);
    the returned list contains only the intermediate free cells, which the
    caller turns into ancillas.  Returns ``[]`` if the endpoints are already
    adjacent, ``None`` if no route exists.
    """
    if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) == 1:
        return []
    table = _neighbor_table(grid.width)
    occupied = grid.cells
    parents: dict[Coord2D, Coord2D] = {}
    seen = {start}
    queue: deque[Coord2D] = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in table[current]:
            if neighbor == goal and current != start:
                path = [current]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path[1:] if path and path[0] == start else path
            if neighbor in seen or neighbor in occupied:
                continue
            seen.add(neighbor)
            parents[neighbor] = current
            queue.append(neighbor)
    return None
