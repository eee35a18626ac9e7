"""Micro-benchmarks of the performance-critical primitives.

These use pytest-benchmark's normal statistical repetition (they are pure
and fast) and track the constants behind Fig. 14/15: bond sampling, the
renormalization path search, the RSL merge loop, one layer formation, one
online RSL cycle, the tableau, and the mapper at a small and a paper size.
"""

import numpy as np

from oracles import components_dsu

from repro.circuits import make_benchmark, qaoa
from repro.graphstate import GraphState, ResourceStateSpec, Tableau
from repro.hardware import FusionDevice, HardwareConfig, RSGArray
from repro.mbqc import translate_circuit
from repro.offline import OfflineMapper
from repro.online.fusion_strategy import form_layer
from repro.online.modular import modular_renormalize
from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize
from repro.passes.rewrite import RewritePass
from repro.pipeline import Pipeline, PipelineSettings, TranslatePass
from repro.utils.dsu import DisjointSet


def test_bond_sampling_48(benchmark):
    rng = np.random.default_rng(0)
    benchmark(lambda: sample_lattice(48, 0.75, rng))


def test_components_vectorized_48(benchmark):
    """The online hot path: numpy label-propagation flood fill."""
    lattice = sample_lattice(48, 0.75, np.random.default_rng(0))
    benchmark(lattice.components)


def test_components_dsu_48(benchmark):
    """The pre-vectorization union-find oracle, kept for comparison."""
    lattice = sample_lattice(48, 0.75, np.random.default_rng(0))
    benchmark(components_dsu, lattice)


def test_renormalize_48(benchmark):
    rng = np.random.default_rng(0)

    def run():
        return renormalize(sample_lattice(48, 0.75, rng), 3)

    benchmark(run)


def test_renormalize_96(benchmark):
    rng = np.random.default_rng(0)

    def run():
        return renormalize(sample_lattice(96, 0.75, rng), 6)

    benchmark(run)


def test_merge_layers_36(benchmark):
    """Root-leaf merging of 4-qubit stars into one 36x36 layer at p 0.75,
    the shape of a ``serve-mixed`` cold compile (two merges with retries)."""
    config = HardwareConfig(rsl_size=36, resource_state=ResourceStateSpec(4))
    array = RSGArray(config)
    device = FusionDevice(0.75, rng=0)
    benchmark(lambda: array.merge_layers(device))


def test_form_layer_48(benchmark):
    """One layer formation (merging with retries, bond sampling with the
    retry round) of 4-qubit stars at p 0.75 on a 48x48 RSL, the
    ``serve-mixed`` 4q/0.75 cold shape."""
    config = HardwareConfig(
        rsl_size=48, resource_state=ResourceStateSpec(4), fusion_success_rate=0.75
    )
    device = FusionDevice(config.effective_fusion_rate, rng=0)
    benchmark(lambda: form_layer(config, device))


def test_online_rsl_cycle_24(benchmark):
    """One RSL of the online pass: ``form_layer`` (merging with retries,
    bond sampling) plus one ``renormalize`` to a 2x2 virtual layer, with
    4-qubit stars at p 0.9 on a 24x24 RSL — the unit of work of a
    ``serve-mixed`` cold compile."""
    config = HardwareConfig(
        rsl_size=24, resource_state=ResourceStateSpec(4), fusion_success_rate=0.9
    )
    device = FusionDevice(config.effective_fusion_rate, rng=0)

    def run():
        return renormalize(form_layer(config, device).lattice, 2)

    benchmark(run)


def test_modular_renormalize_48(benchmark):
    """Four modules plus their corridor joins (fig14's modular panel)."""
    rng = np.random.default_rng(0)

    def run():
        return modular_renormalize(sample_lattice(48, 0.75, rng), 4, 4, 7.0)

    benchmark(run)


def test_tableau_fusion_chain(benchmark):
    def run():
        graph = GraphState()
        for star in range(6):
            for leaf in range(1, 4):
                graph.add_edge(f"r{star}", (f"r{star}", leaf))
        tableau, index = Tableau.from_graph(graph)
        for star in range(5):
            tableau.fuse(index[(f"r{star}", 1)], index[(f"r{star+1}", 2)])
        return tableau

    benchmark(run)


def test_mapper_qaoa9(benchmark):
    pattern = translate_circuit(qaoa(9, seed=0))
    benchmark(lambda: OfflineMapper(width=3).map_pattern(pattern))


def test_mapper_qft36_width2(benchmark):
    """fig14's paper point: qft-36 (3,924 pattern nodes after the rewrite)
    on the 2x2 virtual hardware, about one mapper layer per node — the size
    at which a per-layer cost that grows with the pattern shows up."""
    settings = PipelineSettings(
        fusion_success_rate=0.75,
        resource_state_size=7,
        rsl_size=96,
        virtual_size=2,
        max_rsl=10**5,
    )
    front = Pipeline(settings, passes=(TranslatePass(), RewritePass()))
    pattern = front.run_circuit(make_benchmark("qft", 36, seed=0), 0).require("pattern")
    assert len(pattern.nodes) == 3924
    benchmark(lambda: OfflineMapper(width=2).map_pattern(pattern))


def test_dsu_union_heavy(benchmark):
    def run():
        dsu = DisjointSet()
        for i in range(5000):
            dsu.union(i % 701, (i * 31) % 701)
        return dsu.component_count

    benchmark(run)
