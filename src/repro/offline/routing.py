"""In-layer routing on the virtual hardware grid.

Spatial edges of the FlexLattice IR join 4-adjacent nodes, so connecting two
arbitrary cells on a layer lays down a wire of ancilla nodes between them
(measured in X/Y depending on parity, per Section 6.3).  The router is a
plain BFS over free cells — the optimization-relevant behaviour is *which*
cells are free, which the mapper controls.

A layer's occupancy is one list of owners over flat row-major cell indices
(``row * width + col``; ``None`` marks a free cell), and the BFS runs on a
per-width table of neighbour indices, so neither allocates a tuple per cell
visited.  The ``(row, col)`` API is a thin layer over that record.
"""

from __future__ import annotations

from collections.abc import Container
from functools import lru_cache

from repro.utils.gridgeom import Coord2D, grid_neighbors4, iter_grid


class LayerGrid:
    """Occupancy of one virtual-hardware layer."""

    def __init__(self, width: int) -> None:
        self.width = width
        #: Owner of each flat cell index, ``None`` where the cell is free.
        self.owners: list[object] = [None] * (width * width)
        self.occupied = 0

    @property
    def full(self) -> bool:
        """Whether every cell of the layer is occupied."""
        return self.occupied == len(self.owners)

    def is_free(self, cell: Coord2D) -> bool:
        return self.owners[cell[0] * self.width + cell[1]] is None

    def occupy(self, cell: Coord2D, owner: object) -> None:
        """Give ``cell`` to ``owner`` (anything but ``None``)."""
        index = cell[0] * self.width + cell[1]
        if self.owners[index] is not None:
            raise ValueError(f"cell {cell} already occupied by {self.owners[index]!r}")
        self.owners[index] = owner
        self.occupied += 1

    def release(self, cell: Coord2D) -> None:
        index = cell[0] * self.width + cell[1]
        if self.owners[index] is not None:
            self.owners[index] = None
            self.occupied -= 1

    def nearest_free(
        self,
        anchors: list[Coord2D],
        homes: Container[Coord2D] = (),
        neighbor_homes: Container[Coord2D] | None = (),
    ) -> Coord2D | None:
        """The free cell minimizing ``(tier, total Manhattan distance to
        anchors, row-major index)``, in one pass over the cells.

        A cell outside ``homes`` is tier 0, one in ``homes`` tier 1, and one
        also in ``neighbor_homes`` tier 2.  With ``neighbor_homes=None`` the
        cells in ``homes`` are not candidates at all.  With no anchors and
        no homes, returns the first free cell in row-major order.  ``None``
        if no cell qualifies.
        """
        best: Coord2D | None = None
        best_rank = best_cost = 0
        for owner, cell in zip(self.owners, _row_major(self.width)):
            if owner is not None:
                continue
            if cell in homes:
                if neighbor_homes is None:
                    continue
                rank = 2 if cell in neighbor_homes else 1
                if best is not None and rank > best_rank:
                    continue
            else:
                rank = 0
            row, col = cell
            cost = 0
            for anchor_row, anchor_col in anchors:
                cost += abs(row - anchor_row) + abs(col - anchor_col)
            if best is None or rank < best_rank or cost < best_cost:
                best, best_rank, best_cost = cell, rank, cost
        return best


@lru_cache(maxsize=32)
def _row_major(width: int) -> tuple[Coord2D, ...]:
    """Each flat cell index's ``(row, col)``."""
    return tuple(iter_grid(width))


@lru_cache(maxsize=32)
def _neighbor_table(width: int) -> tuple[tuple[int, ...], ...]:
    """Each flat cell index's in-bounds 4-neighbour indices, in
    ``grid_neighbors4`` order (the BFS tie-break)."""
    return tuple(
        tuple(row * width + col for row, col in grid_neighbors4(cell, width))
        for cell in _row_major(width)
    )


def route(grid: LayerGrid, start: Coord2D, goal: Coord2D) -> list[Coord2D] | None:
    """Shortest wire of *free* cells connecting ``start`` and ``goal``.

    ``start`` and ``goal`` are occupied endpoints (the nodes being joined);
    the returned list contains only the intermediate free cells, which the
    caller turns into ancillas.  Returns ``[]`` if the endpoints are already
    adjacent, ``None`` if no route exists.  Among shortest wires it returns
    the one the BFS from ``start`` reaches first, expanding neighbours in
    ``grid_neighbors4`` order.
    """
    if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) == 1:
        return []
    width = grid.width
    owners = grid.owners
    table = _neighbor_table(width)
    source = start[0] * width + start[1]
    target = goal[0] * width + goal[1]
    parents = [-1] * len(owners)
    parents[source] = source
    queue = [source]
    for current in queue:  # the queue grows while it is walked
        for neighbor in table[current]:
            if neighbor == target:
                # Never ``current == source``: adjacent endpoints returned
                # above, and the goal is no neighbour of itself.
                cells = _row_major(width)
                wire = []
                while current != source:
                    wire.append(cells[current])
                    current = parents[current]
                wire.reverse()
                return wire
            if parents[neighbor] < 0 and owners[neighbor] is None:
                parents[neighbor] = current
                queue.append(neighbor)
    return None
