"""Edge-case and failure-injection tests across modules."""

import numpy as np
import pytest

from repro.circuits import Circuit, qaoa
from repro.errors import (
    CircuitError,
    GraphStateError,
    HardwareError,
    RenormalizationError,
)
from repro.graphstate import GraphState, ResourceStateSpec, Tableau
from repro.hardware import FusionDevice, HardwareConfig
from repro.mbqc import translate_circuit
from repro.online import (
    LayerDemand,
    OnlineReshaper,
    PercolatedLattice,
    modular_renormalize,
    renormalize,
    sample_lattice,
)
from repro.online.modular import ModularLayout
from repro.pipeline import Pipeline, PipelineSettings


class TestDegenerateLattices:
    def test_one_by_one_lattice(self):
        lattice = sample_lattice(1, 0.5, rng=0)
        assert lattice.size == 1
        assert lattice.largest_cluster_fraction() == 1.0
        result = renormalize(lattice, 1)
        assert result.success  # the single site is its own coarse node

    def test_two_by_two_all_open(self):
        lattice = sample_lattice(2, 1.0, rng=0)
        result = renormalize(lattice, 1)
        assert result.success
        assert len(result.node_sites) == 1

    def test_malformed_lattice_shapes_rejected(self):
        with pytest.raises(RenormalizationError):
            PercolatedLattice(
                sites=np.ones((3, 3), dtype=bool),
                horizontal=np.ones((3, 3), dtype=bool),  # wrong: should be (3,2)
                vertical=np.ones((2, 3), dtype=bool),
            )

    def test_single_row_of_dead_sites_blocks_vertical(self):
        lattice = sample_lattice(6, 1.0, rng=0)
        lattice.sites[3, :] = False  # a dead wall across the lattice
        result = renormalize(lattice, 2)
        assert not result.success


class TestModularEdges:
    def test_one_module_equals_whole_lattice(self):
        layout = ModularLayout.fit(30, 1, 5.0)
        assert layout.module_size == 30

    def test_too_many_modules_rejected(self):
        with pytest.raises(RenormalizationError):
            ModularLayout.fit(8, 16, 7.0)  # modules would be ~1 site wide

    def test_modular_on_dead_lattice(self):
        lattice = sample_lattice(48, 0.0, rng=0)
        result = modular_renormalize(lattice, 6, 4, 7.0)
        assert not result.success
        assert result.node_count == 0


class TestReshaperFailureInjection:
    def test_all_fusions_fail(self):
        config = HardwareConfig(
            rsl_size=8,
            resource_state=ResourceStateSpec(7),
            fusion_success_rate=1e-9,
        )
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0, max_rsl=30)
        with pytest.raises(HardwareError):
            reshaper.run([LayerDemand(0, 0)])

    def test_perfect_fusions_minimal_consumption(self):
        config = HardwareConfig(
            rsl_size=12, resource_state=ResourceStateSpec(7), fusion_success_rate=1.0
        )
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0)
        metrics = reshaper.run([LayerDemand(1, 0)] * 3)
        assert metrics.rsl_consumed == 3  # one RSL per logical layer
        assert metrics.routing_layers == 0

    def test_merged_stars_consume_multiple_rsls_each(self):
        config = HardwareConfig(
            rsl_size=12, resource_state=ResourceStateSpec(4), fusion_success_rate=1.0
        )
        reshaper = OnlineReshaper(config, virtual_size=2, rng=0)
        metrics = reshaper.run([LayerDemand(0, 0)] * 2)
        assert metrics.rsl_consumed == 6  # 3 merged RSLs per layer


class TestCompilerConfigErrors:
    def test_zero_rate_rejected_at_hardware_level(self):
        compiler = Pipeline(PipelineSettings(fusion_success_rate=0.0))
        with pytest.raises(HardwareError):
            compiler.compile(qaoa(4, seed=0))

    def test_virtual_bigger_than_rsl_rejected(self):
        compiler = Pipeline(PipelineSettings(rsl_size=4, virtual_size=8))
        with pytest.raises(HardwareError):
            compiler.compile(qaoa(4, seed=0))

    def test_single_gate_program(self):
        circuit = Circuit(2, name="tiny")
        circuit.cz(0, 1)
        compiler = Pipeline(
            PipelineSettings(fusion_success_rate=0.9, rsl_size=24, virtual_size=2),
            seed=0,
        )
        result = compiler.compile(circuit)
        assert result.rsl_count >= result.logical_layers >= 1


class TestPatternEdges:
    def test_identity_circuit_pattern(self):
        """A circuit with no gates: inputs are the outputs, nothing measured."""
        pattern = translate_circuit(Circuit(2, name="idle"))
        assert pattern.inputs == pattern.outputs
        assert pattern.measured_count == 0
        assert pattern.flow_order() == []

    def test_cz_only_circuit(self):
        circuit = Circuit(2)
        circuit.cz(0, 1)
        pattern = translate_circuit(circuit)
        assert pattern.graph.edge_count == 1
        assert pattern.measured_count == 0


class TestGraphStateEdges:
    def test_fusion_on_missing_qubits(self):
        from repro.graphstate import apply_fusion

        graph = GraphState()
        graph.add_node("a")
        with pytest.raises(GraphStateError):
            apply_fusion(graph, "a", "ghost", True)

    def test_tableau_single_qubit(self):
        tableau = Tableau(1)
        assert tableau.measure_letter(0, "Z") == 0  # |0> is Z-definite

    def test_tableau_zero_qubits_rejected(self):
        with pytest.raises(GraphStateError):
            Tableau(0)

    def test_circuit_gate_on_missing_wire(self):
        with pytest.raises(CircuitError):
            Circuit(1).cz(0, 1)


class TestFusionDeviceDeterminism:
    def test_same_seed_same_outcomes(self):
        a = FusionDevice(0.6, rng=9).attempt_batch(50)
        b = FusionDevice(0.6, rng=9).attempt_batch(50)
        assert (a == b).all()

    def test_different_kinds_share_stream(self):
        device = FusionDevice(0.6, rng=9)
        device.attempt_batch(10, "leaf-leaf")
        device.attempt_batch(10, "temporal")
        assert device.tally.attempted == 20
        assert set(device.tally.by_kind) == {"leaf-leaf", "temporal"}
