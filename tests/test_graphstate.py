"""Tests for the graph state structure and its rewrite rules."""

import pytest
from hypothesis import given, settings, strategies as st
from semantics import (
    connected_components,
    largest_component,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    relabeled,
    remove_edge,
    subgraph,
    toggle_edge,
)

from repro.errors import GraphStateError
from repro.graphstate import GraphState


def star(leaves=3, offset=0):
    graph = GraphState()
    for leaf in range(1, leaves + 1):
        graph.add_edge(offset, offset + leaf)
    return graph


def random_graph(num_nodes: int, edge_bits: int) -> GraphState:
    """Deterministic graph from a bitmask over the edge list."""
    graph = GraphState()
    for node in range(num_nodes):
        graph.add_node(node)
    index = 0
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if (edge_bits >> index) & 1:
                graph.add_edge(i, j)
            index += 1
    return graph


graphs = st.builds(
    random_graph, st.integers(2, 7), st.integers(0, 2**21 - 1)
)


class TestStructure:
    def test_empty(self):
        graph = GraphState()
        assert graph.node_count == 0
        assert graph.edge_count == 0

    def test_add_edge_creates_nodes(self):
        graph = GraphState()
        graph.add_edge("a", "b")
        assert graph.node_count == 2
        assert graph.has_edge("a", "b")

    def test_add_edge_idempotent(self):
        graph = GraphState([("a", "b"), ("a", "b")])
        assert graph.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStateError):
            GraphState([("a", "a")])

    def test_toggle_edge(self):
        graph = GraphState()
        graph.add_node(1)
        graph.add_node(2)
        toggle_edge(graph, 1, 2)
        assert graph.has_edge(1, 2)
        toggle_edge(graph, 1, 2)
        assert not graph.has_edge(1, 2)

    def test_remove_edge_missing_raises(self):
        graph = GraphState()
        graph.add_node(1)
        graph.add_node(2)
        with pytest.raises(GraphStateError):
            remove_edge(graph, 1, 2)

    def test_neighbors_copy_isolated(self):
        graph = star()
        nbrs = graph.neighbors(0)
        nbrs.add("junk")
        assert "junk" not in graph.neighbors(0)

    def test_degree(self):
        graph = star(4)
        assert graph.degree(0) == 4
        assert graph.degree(1) == 1

    def test_unknown_node_raises(self):
        with pytest.raises(GraphStateError):
            GraphState().degree("missing")

    def test_remove_node_cleans_edges(self):
        graph = star(3)
        graph.remove_node(0)
        assert graph.node_count == 3
        assert graph.edge_count == 0

    def test_edges_reported_once(self):
        graph = GraphState([(1, 2), (2, 3), (3, 1)])
        assert len(graph.edges()) == 3

    def test_copy_is_independent(self):
        graph = star()
        clone = graph.copy()
        clone.remove_node(0)
        assert graph.node_count == 4

    def test_relabeled(self):
        graph = GraphState([(0, 1)])
        clone = relabeled(graph, {0: "x", 1: "y"})
        assert clone.has_edge("x", "y")

    def test_relabeled_collision_raises(self):
        graph = GraphState([(0, 1)])
        with pytest.raises(GraphStateError):
            relabeled(graph, {0: "x", 1: "x"})

    def test_equality(self):
        assert GraphState([(0, 1)]) == GraphState([(1, 0)])
        assert GraphState([(0, 1)]) != GraphState([(0, 2)])

    def test_subgraph(self):
        graph = GraphState([(0, 1), (1, 2), (2, 0)])
        sub = subgraph(graph, [0, 1])
        assert sub.node_count == 2
        assert sub.has_edge(0, 1)

    def test_subgraph_unknown_node(self):
        with pytest.raises(GraphStateError):
            subgraph(GraphState([(0, 1)]), [5])

    def test_connected_components_sorted_by_size(self):
        graph = GraphState([(0, 1), (1, 2), (10, 11)])
        components = connected_components(graph)
        assert len(components[0]) == 3
        assert len(components[1]) == 2

    def test_largest_component_includes_isolated(self):
        graph = GraphState()
        graph.add_node("solo")
        assert largest_component(graph) == {"solo"}


class TestRewriteRules:
    def test_local_complement_star_becomes_clique_plus_star(self):
        graph = star(3)
        local_complement(graph, 0)
        # Neighbours of the root become fully connected.
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    assert graph.has_edge(a, b)
        # Root edges are untouched.
        for leaf in (1, 2, 3):
            assert graph.has_edge(0, leaf)

    def test_local_complement_on_leaf_is_trivial(self):
        graph = star(3)
        before = graph.copy()
        local_complement(graph, 1)
        assert graph == before

    def test_measure_z_removes_node(self):
        graph = star(3)
        measure_z(graph, 0)
        assert 0 not in graph
        assert graph.edge_count == 0

    def test_measure_y_is_lc_then_delete(self):
        graph = star(3)
        reference = graph.copy()
        local_complement(reference, 0)
        reference.remove_node(0)
        measure_y(graph, 0)
        assert graph == reference

    def test_measure_x_isolated_node(self):
        graph = GraphState()
        graph.add_node("q")
        measure_x(graph, "q")
        assert "q" not in graph

    def test_measure_x_invalid_special_neighbor(self):
        graph = star(3)
        with pytest.raises(GraphStateError):
            measure_x(graph, 0, special_neighbor=99)

    def test_measure_x_on_wire_contracts(self):
        """X-measuring the middle of a 3-chain leaves the ends connected."""
        graph = GraphState([(0, 1), (1, 2)])
        measure_x(graph, 1)
        assert graph.has_edge(0, 2)
        assert graph.node_count == 2

    @given(graphs, st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_local_complement_is_involution(self, graph, node):
        if node not in graph:
            return
        reference = graph.copy()
        local_complement(graph, node)
        local_complement(graph, node)
        assert graph == reference

    @given(graphs, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_measurements_only_shrink(self, graph, node):
        if node not in graph:
            return
        before = graph.node_count
        measure_y(graph, node)
        assert graph.node_count == before - 1

    @given(graphs, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_local_complement_preserves_degree_of_target(self, graph, node):
        """tau_v never changes v's own neighbourhood."""
        if node not in graph:
            return
        before = graph.neighbors(node)
        local_complement(graph, node)
        assert graph.neighbors(node) == before
