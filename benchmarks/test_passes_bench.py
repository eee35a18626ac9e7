"""Floors for the pass ecosystem: what the pattern rewrite buys.

Three checks:

* **Shrink** — every benchmark family at 4 qubits, lowered to {J, CZ}
  *without* peephole simplification (the shape an external front end that
  missed its local optimizations would hand the pipeline), translated, and
  contracted by the rewrite pass.  The floor asserts the contraction
  removes at least ``SHRINK_FLOOR_PCT`` percent of pattern nodes on every
  family — the rewrite's raison d'être, gated.

* **Logical layers, rewrite on vs off** — the same unsimplified circuits
  compiled end-to-end through the default chain and through the
  unrewritten oracle chain (``tests/oracles.py::unrewritten_passes``):
  fewer nodes means fewer logical layers means fewer RSLs consumed
  online.  The layer counts are deterministic: on never exceeds off, and
  at least one family gets strictly fewer.

* **Cache interaction** — the rewrite pass is cacheable: a re-compile of
  the same circuit must hit the rewrite stage (and every other cacheable
  stage) instead of re-contracting.
"""

from __future__ import annotations

from oracles import unrewritten_passes

from repro.circuits.benchmarks import make_benchmark
from repro.circuits.jcz import to_jcz
from repro.mbqc.optimize import optimize_pattern
from repro.mbqc.translate import translate_circuit
from repro.pipeline import MemoryCache, Pipeline, PipelineSettings

FAMILIES = ("qaoa", "qft", "rca", "vqe")
NUM_QUBITS = 4

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, resource_state_size=4, node_side=12, max_rsl=10**5
)

#: Acceptance floor: the rewrite must remove at least this percentage of
#: pattern nodes on every unsimplified family lowering.
SHRINK_FLOOR_PCT = 10.0


def _unsimplified(family: str):
    return to_jcz(make_benchmark(family, NUM_QUBITS, seed=0), simplify=False)


def test_rewrite_shrink_and_reshape_snapshot():
    for family in FAMILIES:
        pattern = translate_circuit(_unsimplified(family))
        before = pattern.node_count
        report = optimize_pattern(pattern)
        shrink_pct = 100.0 * (before - pattern.node_count) / before
        assert report.contracted_pairs > 0, (
            f"{family}{NUM_QUBITS}: rewrite contracted nothing"
        )
        assert shrink_pct >= SHRINK_FLOOR_PCT, (
            f"{family}{NUM_QUBITS}: rewrite only shrank the pattern "
            f"{shrink_pct:.1f}% (floor {SHRINK_FLOOR_PCT}%)"
        )

    # -- end-to-end: rewrite on vs off through the full pipeline -----------
    on = Pipeline(SETTINGS)
    off = Pipeline(SETTINGS, passes=unrewritten_passes())
    circuits = [_unsimplified(family) for family in FAMILIES]
    layers = {
        f"{family}{NUM_QUBITS}": (
            off.compile(circuit, seed=0).logical_layers,
            on.compile(circuit, seed=0).logical_layers,
        )
        for family, circuit in zip(FAMILIES, circuits)
    }
    for name, (off_layers, on_layers) in layers.items():
        assert on_layers <= off_layers, (
            f"{name}: rewrite increased logical layers {off_layers} -> {on_layers}"
        )
    # At least one family must actually convert shrink into fewer layers.
    assert any(on_layers < off_layers for off_layers, on_layers in layers.values())

    # -- cache interaction: the rewrite stage is cacheable -----------------
    cached = on.with_cache(MemoryCache())
    cached.compile(circuits[0], seed=0)
    warm_hits = cached.compile(circuits[0], seed=0).metrics.get("cache_hits", 0)
    # Re-compiling the identical job hits every cacheable stage: translate,
    # rewrite, offline-map, online-reshape.
    assert warm_hits == 4, f"warm re-compile hit {warm_hits} stages, expected 4"
