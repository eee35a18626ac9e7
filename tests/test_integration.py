"""Cross-module integration tests: the full pipeline hangs together.

These tests exercise circuit -> pattern -> mapping -> instructions -> online
execution as one story, and check the quantum-semantics invariants that span
module boundaries.
"""

import numpy as np
import pytest
from oracles import dag_predecessors
from semantics import (
    Tableau,
    apply_fusion,
    emit_star,
    graph_from_adjacency,
    measure_z,
    run_pattern,
    simulate_statevector,
    states_equal_up_to_phase,
)

from repro.circuits import make_benchmark, qaoa
from repro.graphstate import GraphState
from repro.ir import InstructionInterpreter, lower_ir
from repro.mbqc import DependencyDAG, translate_circuit
from repro.offline import OfflineMapper
from repro.online import OnlineReshaper
from repro.hardware import HardwareConfig
from repro.graphstate.resource import ResourceStateSpec
from repro.pipeline import Pipeline, PipelineSettings


class TestPipeline:
    @pytest.fixture(scope="class")
    def compiled(self):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.75,
                resource_state_size=4,
                max_rsl=10**5,
            ),
            seed=5,
        )
        circuit = make_benchmark("qaoa", 4, seed=7)
        return circuit, compiler.compile(circuit)

    def test_instruction_stream_is_legal(self, compiled):
        _circuit, result = compiled
        width = result.mapping.ir.width
        rebuilt = InstructionInterpreter(width).run(lower_ir(result.mapping.ir))
        assert rebuilt.structurally_equal(result.mapping.ir)

    def test_ir_realizes_program_graph(self, compiled):
        circuit, result = compiled
        pattern = translate_circuit(circuit)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.mapping.ir.connected_graph_pairs() == expected

    def test_online_served_every_layer(self, compiled):
        _circuit, result = compiled
        assert result.reshape.logical_layers == len(result.mapping.demands)

    def test_fusion_accounting_positive_kinds(self, compiled):
        _circuit, result = compiled
        # Merging (4-qubit stars), spatial bonding and temporal fusions all
        # happened at least once.
        assert result.reshape.rsl_consumed >= 3 * result.reshape.logical_layers

    def test_program_semantics_survive_translation(self, compiled):
        """The measurement pattern the compiler consumed still computes the
        circuit (checked by dense simulation on the small benchmark)."""
        circuit, _result = compiled
        pattern = translate_circuit(circuit)
        zero = np.zeros(2**circuit.num_qubits, dtype=complex)
        zero[0] = 1.0
        output, _ = run_pattern(pattern, input_state=zero, rng=np.random.default_rng(0))
        assert states_equal_up_to_phase(output, simulate_statevector(circuit))


class TestMappingOnlineContract:
    def test_demands_are_executable(self):
        """The mapper never demands more connections than a layer can host."""
        pattern = translate_circuit(qaoa(9, seed=0))
        width = 3
        mapping = OfflineMapper(width=width).map_pattern(pattern)
        for demand in mapping.demands:
            assert (
                demand.adjacent_connections + demand.cross_connections
                <= width * width
            )

    def test_reshaper_consumes_mapper_demands(self):
        pattern = translate_circuit(qaoa(4, seed=1))
        mapping = OfflineMapper(width=2).map_pattern(pattern)
        config = HardwareConfig(
            rsl_size=32, resource_state=ResourceStateSpec(7), fusion_success_rate=0.78
        )
        metrics = OnlineReshaper(config, virtual_size=2, rng=3).run(mapping.demands)
        assert metrics.logical_layers == mapping.layer_count


class TestQuantumSemanticEndToEnd:
    def test_percolated_layer_is_a_real_graph_state(self):
        """Build a tiny RSL's physical graph state with real fusions and
        verify the lattice abstraction agrees with the graph-state picture."""
        size = 3
        graph = GraphState()
        stars = {}
        for row in range(size):
            for col in range(size):
                stars[(row, col)] = emit_star(graph, ResourceStateSpec(5), (row, col))
        # Fuse right and down neighbours leaf-to-leaf, all successful.
        for row in range(size):
            for col in range(size):
                if col + 1 < size:
                    apply_fusion(
                        graph,
                        stars[(row, col)].leaves[0],
                        stars[(row, col + 1)].leaves[1],
                        True,
                    )
                if row + 1 < size:
                    apply_fusion(
                        graph,
                        stars[(row, col)].leaves[2],
                        stars[(row + 1, col)].leaves[3],
                        True,
                    )
        # The roots now form a 3x3 lattice.
        for row in range(size):
            for col in range(size):
                root = stars[(row, col)].root
                if col + 1 < size:
                    assert graph.has_edge(root, stars[(row, col + 1)].root)
                if row + 1 < size:
                    assert graph.has_edge(root, stars[(row + 1, col)].root)

    def test_lattice_reshaping_by_z_measurements(self):
        """Z-measuring non-path qubits carves a wire out of a lattice and the
        tableau confirms the surviving chain, mirroring the reshaping pass."""
        graph = GraphState()
        for row in range(3):
            for col in range(3):
                if col + 1 < 3:
                    graph.add_edge((row, col), (row, col + 1))
                if row + 1 < 3:
                    graph.add_edge((row, col), (row + 1, col))
        tableau, index = Tableau.from_graph(graph)
        keep_path = [(1, 0), (1, 1), (1, 2)]  # the middle row
        expected = graph.copy()
        for node in graph.nodes():
            if node not in keep_path:
                measure_z(expected, node)
                tableau.measure_letter(index[node], "Z", postselect=0)
        keep = [index[n] for n in keep_path]
        adjacency, _ = tableau.extract_graph(keep)
        chain = graph_from_adjacency(adjacency)
        assert chain.has_edge(0, 1) and chain.has_edge(1, 2)
        assert not chain.has_edge(0, 2)


class TestDependencyMapperAgreement:
    def test_mapping_respects_dependency_order(self):
        """A node is never placed on an earlier layer than a predecessor."""
        pattern = translate_circuit(qaoa(4, seed=4))
        dag = DependencyDAG(pattern)
        mapping = OfflineMapper(width=2).map_pattern(pattern)
        layer_of = {g: coord[2] for g, coord in mapping.ir.graph_nodes().items()}
        for node in pattern.nodes:
            for predecessor in dag_predecessors(dag, node):
                assert layer_of[predecessor] <= layer_of[node]
