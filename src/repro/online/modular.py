"""Modular 2D renormalization (Section 5.1, Fig. 10).

To meet the photon-lifetime deadline, the RSL is divided into ``g x g``
modules of side ``L_module`` separated by intervals of width ``L_interval``
(``MI ratio = L_module / L_interval``).  Modules renormalize *concurrently*
— wall-clock is the slowest module, not the sum — and are then joined by
connecting the corresponding boundary paths through the interval corridors.
A global row/column of the joined lattice survives only if every inter-module
join along it succeeds, which is the resource overhead Fig. 13(c) quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import RenormalizationError
from repro.online.percolation import (
    PercolatedLattice,
    frontier_bfs,
    move_table_indptr,
    move_table_pops,
)
from repro.online.renormalize import RenormalizationResult, renormalize


@dataclass(frozen=True)
class ModularLayout:
    """Geometry of the module grid on an ``N x N`` RSL."""

    rsl_size: int
    modules_per_side: int
    module_size: int
    interval: int

    @staticmethod
    def fit(rsl_size: int, num_modules: int, mi_ratio: float) -> "ModularLayout":
        """Choose module/interval sizes for ``num_modules`` and an MI ratio.

        ``num_modules`` must be a perfect square (the paper uses 4, 9, 16).
        Solves ``g * L_module + (g - 1) * L_interval <= N`` with
        ``L_module / L_interval ~= mi_ratio``.
        """
        g = int(round(num_modules**0.5))
        if g * g != num_modules:
            raise RenormalizationError(
                f"num_modules must be a perfect square, got {num_modules}"
            )
        if mi_ratio <= 0:
            raise RenormalizationError(f"MI ratio must be positive, got {mi_ratio}")
        if g == 1:
            return ModularLayout(rsl_size, 1, rsl_size, 0)
        # L_module = N * R / (g * R + g - 1), rounded down; interval gets the rest.
        module = int(rsl_size * mi_ratio / (g * mi_ratio + g - 1))
        if module < 2:
            raise RenormalizationError(
                f"MI ratio {mi_ratio} leaves modules of size {module} on an "
                f"RSL of {rsl_size}; too many modules or too small an RSL"
            )
        interval = (rsl_size - g * module) // (g - 1)
        return ModularLayout(rsl_size, g, module, interval)

    def module_origin(self, index: int) -> int:
        """First row/col of module ``index`` along one axis."""
        return index * (self.module_size + self.interval)

    @property
    def num_modules(self) -> int:
        return self.modules_per_side**2


@dataclass
class ModularResult:
    """Outcome of a modular renormalization."""

    layout: ModularLayout
    surviving_rows: int
    surviving_cols: int
    module_results: list[RenormalizationResult] = field(default_factory=list)
    wall_visited_sites: int = 0  # concurrent wall-clock proxy (max module + joins)
    total_visited_sites: int = 0  # total work across modules and joins

    @property
    def renormalized_size(self) -> int:
        """Side length of the largest square coarse lattice that survived."""
        return min(self.surviving_rows, self.surviving_cols)

    @property
    def node_count(self) -> int:
        """Logical nodes in the joined lattice (Fig. 13(c)'s y-axis)."""
        return self.surviving_rows * self.surviving_cols

    @property
    def success(self) -> bool:
        return self.renormalized_size > 0


def _module_lattice(
    lattice: PercolatedLattice, layout: ModularLayout, mi: int, mj: int
) -> PercolatedLattice:
    """The sublattice of module ``(mi, mj)`` as an independent copy."""
    r0 = layout.module_origin(mi)
    c0 = layout.module_origin(mj)
    size = layout.module_size
    return PercolatedLattice(
        sites=lattice.sites[r0 : r0 + size, c0 : c0 + size].copy(),
        horizontal=lattice.horizontal[r0 : r0 + size, c0 : c0 + size - 1].copy(),
        vertical=lattice.vertical[r0 : r0 + size - 1, c0 : c0 + size].copy(),
    )


def _corridor_connected(
    lattice: PercolatedLattice,
    sources: tuple[np.ndarray, np.ndarray],
    targets: tuple[np.ndarray, np.ndarray],
    row_range: tuple[int, int],
    col_range: tuple[int, int],
) -> tuple[bool, int]:
    """Multi-source BFS from one path to another within a corridor window.

    Any physical connection between the two coarse paths realizes the join
    (both paths are single logical wires), so the search starts from every
    source-path site inside the window and accepts any target-path site.
    ``sources`` and ``targets`` are ``(rows, cols)`` arrays of lattice
    coordinates, the sources in path order.  Returns (reached, sites
    visited).

    The window (clipped to the lattice) becomes one fixed-stride move
    table over its usable bonds: four slots per cell in
    :meth:`PercolatedLattice.neighbors` order (right, left, down, up), a
    virtual super-source whose slots are the in-window alive sources in
    path order, and a sink (no out-edges) that every slot without a bond
    points at.  One :func:`~repro.online.percolation.frontier_bfs` then
    answers the join.  The first target's pop position is the per-cell
    BFS's visited count, less one if the sink popped before it.
    ``sources`` is a simple path (no repeated sites).
    """
    size = lattice.size
    top, bottom = max(row_range[0], 0), min(row_range[1], size)
    left, right = max(col_range[0], 0), min(col_range[1], size)
    if top >= bottom or left >= right:
        return False, 0
    height, width = bottom - top, right - left
    total = height * width
    sink = total + 1
    alive = lattice.sites[top:bottom, left:right]
    across = lattice.horizontal[top:bottom, left : right - 1] & alive[:, :-1] & alive[:, 1:]
    down = lattice.vertical[top : bottom - 1, left:right] & alive[:-1, :] & alive[1:, :]

    def window_cells(coords: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Flat window indices of the in-window alive ``coords``, in order."""
        rows, cols = coords[0] - top, coords[1] - left
        inside = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
        rows, cols = rows[inside], cols[inside]
        return (rows * width + cols)[alive[rows, cols]]

    starts = window_cells(sources)
    if not starts.size:
        return False, 0
    flat = np.arange(total, dtype=np.int32).reshape(height, width)
    moves = np.full((height, width, 4), sink, dtype=np.int32)
    moves[:, :-1, 0] = np.where(across, flat[:, 1:], sink)
    moves[:, 1:, 1] = np.where(across, flat[:, :-1], sink)
    moves[:-1, :, 2] = np.where(down, flat[1:, :], sink)
    moves[1:, :, 3] = np.where(down, flat[:-1, :], sink)
    is_target = np.zeros(total + 2, dtype=bool)
    is_target[window_cells(targets)] = True

    indices = np.concatenate((moves.ravel(), starts.astype(np.int32)))
    order, parents = frontier_bfs(move_table_indptr(total, starts.size), indices, total)
    hits = is_target[order]
    first = int(hits.argmax())
    if hits[first]:
        return True, move_table_pops(order, parents, first + 1)
    return False, move_table_pops(order, parents, len(order))


def modular_renormalize(
    lattice: PercolatedLattice,
    node_size: int,
    num_modules: int,
    mi_ratio: float,
) -> ModularResult:
    """Renormalize ``lattice`` module-by-module and join across intervals.

    ``node_size`` is the average-node side (each module targets
    ``module_size // node_size`` coarse nodes per axis).  The joined lattice
    keeps a global row (column) only if every module on it succeeded and all
    its ``g - 1`` corridor joins connected.  Each module runs
    :func:`~repro.online.renormalize.renormalize`; corridor joins run on the
    same compiled frontier engine (:func:`_corridor_connected`).
    """
    layout = ModularLayout.fit(lattice.size, num_modules, mi_ratio)
    g = layout.modules_per_side
    per_module_target = max(1, layout.module_size // node_size)

    results: list[list[RenormalizationResult]] = []
    total_work = 0
    max_module_work = 0
    for mi in range(g):
        row_results = []
        for mj in range(g):
            sub = _module_lattice(lattice, layout, mi, mj)
            result = renormalize(sub, per_module_target)
            row_results.append(result)
            total_work += result.visited_sites
            max_module_work = max(max_module_work, result.visited_sites)
        results.append(row_results)

    # Join corridors.  A global coarse row r = (mi, local j) survives iff all
    # g modules in that module-row succeeded and all g-1 horizontal joins of
    # that local path connected; columns symmetrically.  Module-local flat
    # sites shift by their module's origins into RSL rows and columns.
    origins = [layout.module_origin(index) for index in range(g)]

    def shifted(sites: np.ndarray, mi: int, mj: int) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = np.divmod(sites, layout.module_size)
        return rows + origins[mi], cols + origins[mj]

    join_work = 0
    surviving_rows = 0
    surviving_cols = 0
    for mi in range(g):
        module_row_ok = all(results[mi][mj].success for mj in range(g))
        for local in range(per_module_target):
            if not module_row_ok:
                continue
            ok = True
            for mj in range(g - 1):
                left = shifted(results[mi][mj].horizontal_sites[local], mi, mj)
                right = shifted(results[mi][mj + 1].horizontal_sites[local], mi, mj + 1)
                fringe = max(1, node_size)
                corridor_cols = (
                    layout.module_origin(mj) + layout.module_size - fringe,
                    layout.module_origin(mj + 1) + fringe,
                )
                corridor_rows = (
                    layout.module_origin(mi),
                    layout.module_origin(mi) + layout.module_size,
                )
                reached, visited = _corridor_connected(
                    lattice, left, right, corridor_rows, corridor_cols
                )
                join_work += visited
                if not reached:
                    ok = False
                    break
            surviving_rows += int(ok)
    for mj in range(g):
        module_col_ok = all(results[mi][mj].success for mi in range(g))
        for local in range(per_module_target):
            if not module_col_ok:
                continue
            ok = True
            for mi in range(g - 1):
                upper = shifted(results[mi][mj].vertical_sites[local], mi, mj)
                lower = shifted(results[mi + 1][mj].vertical_sites[local], mi + 1, mj)
                fringe = max(1, node_size)
                corridor_rows = (
                    layout.module_origin(mi) + layout.module_size - fringe,
                    layout.module_origin(mi + 1) + fringe,
                )
                corridor_cols = (
                    layout.module_origin(mj),
                    layout.module_origin(mj) + layout.module_size,
                )
                reached, visited = _corridor_connected(
                    lattice, upper, lower, corridor_rows, corridor_cols
                )
                join_work += visited
                if not reached:
                    ok = False
                    break
            surviving_cols += int(ok)

    flat_results = [result for row in results for result in row]
    return ModularResult(
        layout=layout,
        surviving_rows=surviving_rows,
        surviving_cols=surviving_cols,
        module_results=flat_results,
        wall_visited_sites=max_module_work + join_work,
        total_visited_sites=total_work + join_work,
    )
