"""Pattern-level optimization passes.

The translation pipeline can leave identity structure in the program graph
state — most commonly ``J(0) J(0)`` pairs that a circuit-level peephole
missed because other gates interleaved textually (but not on the wire).  At
the pattern level these are two consecutive zero-angle nodes on a wire with
no other entanglement: both are measured in the X basis, each teleporting an
``H``, so the pair is the identity and the wire can be contracted.

Shorter patterns mean fewer nodes for the offline mapper to place, fewer
layers, and fewer RSLs — the same motivation as the paper's use of PyZX on
the frontend.  Every rewrite here is validated against dense simulation in
the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mbqc.pattern import MeasurementPattern

#: Angles within this tolerance of 0 count as zero-angle (X-basis) nodes.
_ZERO_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OptimizationReport:
    """What an optimization pass did."""

    nodes_before: int
    nodes_after: int
    contracted_pairs: int


def _is_zero(angle: float | None) -> bool:
    return angle is not None and abs(angle) <= _ZERO_TOLERANCE


def _predecessors(pattern: MeasurementPattern) -> dict[int, int]:
    """Map each node to its wire predecessor (absent for inputs)."""
    return {
        node.successor: node_id
        for node_id, node in pattern.nodes.items()
        if node.successor is not None
    }


def merge_zero_pairs(pattern: MeasurementPattern) -> OptimizationReport:
    """Contract ``J(0) J(0)`` wire segments in place.

    A pair (i, j = f(i)) contracts when both are zero-angle measured nodes
    whose only edges are the wire edges around them (predecessor - i - j -
    successor).  The predecessor's flow then points straight at j's
    successor.  Inputs and outputs are never removed.
    """
    before = pattern.node_count
    contracted = 0
    changed = True
    while changed:
        changed = False
        predecessor_of = _predecessors(pattern)
        for node_id in list(pattern.nodes):
            node = pattern.nodes.get(node_id)
            if node is None or node.is_output or not _is_zero(node.angle):
                continue
            j = node.successor
            partner = pattern.nodes.get(j)
            if partner is None or partner.is_output or not _is_zero(partner.angle):
                continue
            p = predecessor_of.get(node_id)
            if p is None:
                continue  # contracting an input would change the interface
            s = partner.successor
            # Both nodes must carry only their wire edges.
            if pattern.graph.neighbors(node_id) != {p, j}:
                continue
            if pattern.graph.neighbors(j) != {node_id, s}:
                continue
            pattern.graph.remove_node(node_id)
            pattern.graph.remove_node(j)
            if not pattern.graph.has_edge(p, s):
                pattern.graph.add_edge(p, s)
            pattern.nodes[p].successor = s
            del pattern.nodes[node_id]
            del pattern.nodes[j]
            contracted += 1
            changed = True
            break  # predecessor map is stale; rebuild
    pattern._order_cache = None
    pattern.validate()
    return OptimizationReport(
        nodes_before=before,
        nodes_after=pattern.node_count,
        contracted_pairs=contracted,
    )


def optimize_pattern(pattern: MeasurementPattern) -> OptimizationReport:
    """Run all pattern optimization passes (currently zero-pair merging)."""
    return merge_zero_pairs(pattern)
