"""ASCII visualization of lattices, renormalization paths and IR layers.

Terminal-friendly renderers for the three structures people most often want
to *look at* while working with the compiler: the percolated physical layer,
the carved renormalization paths, and the layers of a FlexLattice IR
program.  All functions return plain strings.
"""

from __future__ import annotations

from repro.ir.flexlattice import ROLE_ANCILLA, ROLE_GRAPH, ROLE_WORLDLINE, FlexLatticeIR
from repro.online.percolation import PercolatedLattice
from repro.online.renormalize import RenormalizationResult

#: Glyphs for lattice rendering.
GLYPH_DEAD = "."
GLYPH_ALIVE = "o"
GLYPH_VERTICAL = "|"
GLYPH_HORIZONTAL = "-"
GLYPH_NODE = "+"

#: Glyphs for IR layer rendering.
GLYPH_EMPTY = "."
GLYPH_GRAPH = "G"
GLYPH_WORLDLINE = "W"
GLYPH_ANCILLA = "a"


def render_lattice(lattice: PercolatedLattice) -> str:
    """Sites only: ``o`` alive, ``.`` dead (bond detail omitted)."""
    n = lattice.size
    return "\n".join(
        "".join(
            GLYPH_ALIVE if lattice.sites[row, col] else GLYPH_DEAD
            for col in range(n)
        )
        for row in range(n)
    )


def render_renormalization(
    lattice: PercolatedLattice,
    result: RenormalizationResult,
) -> str:
    """Carved paths over the lattice: ``|``/``-`` paths, ``+`` logical nodes."""
    n = lattice.size
    canvas = [
        [
            GLYPH_ALIVE if lattice.sites[row, col] else GLYPH_DEAD
            for col in range(n)
        ]
        for row in range(n)
    ]
    for path in result.vertical_paths:
        for row, col in path:
            canvas[row][col] = GLYPH_VERTICAL
    for path in result.horizontal_paths:
        for row, col in path:
            canvas[row][col] = (
                GLYPH_NODE if canvas[row][col] == GLYPH_VERTICAL else GLYPH_HORIZONTAL
            )
    for coord in result.node_sites.values():
        canvas[coord[0]][coord[1]] = GLYPH_NODE
    return "\n".join("".join(row) for row in canvas)


_GLYPH_FOR_ROLE = {
    ROLE_GRAPH: GLYPH_GRAPH,
    ROLE_WORLDLINE: GLYPH_WORLDLINE,
    ROLE_ANCILLA: GLYPH_ANCILLA,
}


def render_ir(ir: FlexLatticeIR, max_layers: int | None = None) -> str:
    """All (or the first ``max_layers``) layers of an IR program, stacked.

    Each layer is a header line and a ``width`` x ``width`` canvas: ``G``
    program node, ``W`` worldline, ``a`` ancilla wire, ``.`` unused.
    Spatial edges are implied by adjacency of non-empty cells (the mapper
    only wires neighbours).

    One pass over the node column fills every layer's canvas and node
    count, and one over ``temporal_prev`` counts the temporal edges landing
    on each layer, so the cost is linear in the program, not quadratic in
    its layer count.
    """
    total = ir.layer_count
    count = total if max_layers is None else min(max_layers, total)
    width = ir.width
    canvases = [[[GLYPH_EMPTY] * width for _ in range(width)] for _ in range(count)]
    node_counts = [0] * count
    temporal_in = [0] * count
    for (row, col, layer), role in ir.role.items():
        if layer < count:
            canvases[layer][row][col] = _GLYPH_FOR_ROLE[role]
            node_counts[layer] += 1
    for later in ir.temporal_prev:
        if later[2] < count:
            temporal_in[later[2]] += 1
    blocks = [
        f"layer {layer} ({node_counts[layer]} nodes, "
        f"{temporal_in[layer]} temporal in)\n"
        + "\n".join("".join(row) for row in canvases[layer])
        for layer in range(count)
    ]
    if count < total:
        blocks.append(f"... ({total - count} more layers)")
    return "\n\n".join(blocks)


def render_demand_profile(demands) -> str:
    """Sparkline-ish view of per-layer connection demand."""
    lines = []
    for index, demand in enumerate(demands):
        bar = "#" * demand.adjacent_connections + "%" * demand.cross_connections
        lines.append(f"{index:4d} {bar}")
    return "\n".join(lines)
