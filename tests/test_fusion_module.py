"""Tests for fusion classification/semantics and star resource states."""

import numpy as np
import pytest
from semantics import (
    apply_fusion,
    apply_fusion_sampled,
    classify_fusion,
    emit_star,
    make_star,
)

from repro.errors import GraphStateError, HardwareError
from repro.graphstate import GraphState, ResourceStateSpec


def two_stars():
    graph = GraphState()
    for leaf in (1, 2, 3):
        graph.add_edge(0, leaf)
    for leaf in (5, 6, 7):
        graph.add_edge(4, leaf)
    return graph


class TestClassification:
    def test_leaf_leaf(self):
        assert classify_fusion(two_stars(), 1, 5) == "leaf-leaf"

    def test_root_leaf(self):
        assert classify_fusion(two_stars(), 0, 5) == "root-leaf"

    def test_root_root(self):
        assert classify_fusion(two_stars(), 0, 4) == "root-root"


class TestApplyFusion:
    def test_both_qubits_consumed(self):
        graph = two_stars()
        apply_fusion(graph, 1, 5, True)
        assert 1 not in graph and 5 not in graph

    def test_self_fusion_rejected(self):
        with pytest.raises(GraphStateError):
            apply_fusion(two_stars(), 1, 1, True)

    def test_adjacent_fusion_rejected(self):
        with pytest.raises(GraphStateError):
            apply_fusion(two_stars(), 0, 1, True)

    def test_success_records_outcome(self):
        outcome = apply_fusion(two_stars(), 1, 5, True)
        assert outcome.success and outcome.kind == "leaf-leaf"

    def test_sampled_probability_zero_always_fails(self):
        rng = np.random.default_rng(0)
        graph = two_stars()
        outcome = apply_fusion_sampled(graph, 1, 5, 0.0, rng)
        assert not outcome.success

    def test_sampled_probability_one_always_succeeds(self):
        rng = np.random.default_rng(0)
        outcome = apply_fusion_sampled(two_stars(), 1, 5, 1.0, rng)
        assert outcome.success

    def test_sampled_probability_out_of_range(self):
        with pytest.raises(GraphStateError):
            apply_fusion_sampled(two_stars(), 1, 5, 1.5, np.random.default_rng(0))

    def test_sampled_rate_is_about_right(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(400):
            graph = two_stars()
            hits += apply_fusion_sampled(graph, 1, 5, 0.75, rng).success
        assert 0.65 < hits / 400 < 0.85


class TestResourceStateSpec:
    def test_default_size(self):
        spec = ResourceStateSpec()
        assert spec.size == 4
        assert spec.leaf_count == 3
        assert spec.max_degree == 3

    def test_too_small_rejected(self):
        with pytest.raises(HardwareError):
            ResourceStateSpec(1)

    def test_sufficiency_for_lattices(self):
        assert ResourceStateSpec(7).sufficient_for_lattice(6)
        assert not ResourceStateSpec(4).sufficient_for_lattice(6)
        assert ResourceStateSpec(5).sufficient_for_lattice(4)

    def test_merges_needed_matches_fig7c(self):
        # Two 4-degree (5-qubit) stars merge to a 7-degree state: one merge
        # suffices for a 3D lattice.
        assert ResourceStateSpec(5).merges_needed_for_degree(6) == 2
        # 4-qubit stars (degree 3): 3 -> 5 -> 7, so three stars.
        assert ResourceStateSpec(4).merges_needed_for_degree(6) == 3
        # 7-qubit stars natively suffice.
        assert ResourceStateSpec(7).merges_needed_for_degree(6) == 1

    def test_merged_degree_arithmetic(self):
        """A successful root-leaf fusion of degree-da and degree-db stars
        yields degree da + db - 1 (paper: 4 + 4 -> 7)."""
        graph = GraphState()
        make_star(graph, "rootA", [f"a{k}" for k in range(4)])
        make_star(graph, "rootB", [f"b{k}" for k in range(4)])
        apply_fusion(graph, "a0", "rootB", True)
        assert graph.degree("rootA") == 7


class TestStarBuilders:
    def test_make_star_structure(self):
        graph = GraphState()
        star = make_star(graph, "r", ["l1", "l2"])
        assert graph.degree("r") == 2
        assert star.size == 3
        assert star.qubits == ["r", "l1", "l2"]

    def test_make_star_needs_leaves(self):
        with pytest.raises(HardwareError):
            make_star(GraphState(), "r", [])

    def test_emit_star_node_ids(self):
        graph = GraphState()
        star = emit_star(graph, ResourceStateSpec(4), tag=(0, 1, 2))
        assert star.root == ((0, 1, 2), 0)
        assert len(star.leaves) == 3
        assert graph.node_count == 4
