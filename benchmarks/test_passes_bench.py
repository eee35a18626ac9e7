"""Perf snapshot for the pass ecosystem: what the pattern rewrite buys.

Three measurements land in ``benchmarks/out/BENCH_passes.json``:

* **Shrink** — every benchmark family at 4 qubits, lowered to {J, CZ}
  *without* peephole simplification (the shape an external front end that
  missed its local optimizations would hand the pipeline), translated, and
  contracted by the rewrite pass.  The floor asserts the contraction
  removes at least ``SHRINK_FLOOR_PCT`` percent of pattern nodes on every
  family — the rewrite's raison d'être, gated.

* **Online reshape, rewrite on vs off** — the same unsimplified circuits
  compiled end-to-end through the default chain and through the
  unrewritten oracle chain (``tests/oracles.py::unrewritten_passes``):
  fewer nodes means fewer logical layers means fewer
  RSLs consumed online.  The layer reduction is deterministic and gated;
  the wall-clock ratio is informative only (shared runners are noisy).

* **Cache interaction** — the rewrite pass is cacheable: a re-compile of
  the same circuit must hit the rewrite stage (and every other cacheable
  stage) instead of re-contracting.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from oracles import unrewritten_passes

from repro.circuits.benchmarks import make_benchmark
from repro.circuits.jcz import to_jcz
from repro.mbqc.optimize import optimize_pattern
from repro.mbqc.translate import translate_circuit
from repro.pipeline import MemoryCache, Pipeline, PipelineSettings

SNAPSHOT = Path(__file__).parent / "out" / "BENCH_passes.json"

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
    shrink = {}
    for family in FAMILIES:
        pattern = translate_circuit(_unsimplified(family))
        before = pattern.node_count
        start = time.perf_counter()
        report = optimize_pattern(pattern)
        rewrite_s = time.perf_counter() - start
        after = pattern.node_count
        shrink[f"{family}{NUM_QUBITS}"] = {
            "nodes_before": before,
            "nodes_after": after,
            "contracted_pairs": report.contracted_pairs,
            "shrink_pct": round(100.0 * (before - after) / before, 2),
            "rewrite_s": rewrite_s,
        }

    # -- end-to-end: rewrite on vs off through the full pipeline -----------
    on = Pipeline(SETTINGS)
    off = Pipeline(SETTINGS, passes=unrewritten_passes())
    circuits = [_unsimplified(family) for family in FAMILIES]
    on.compile(circuits[0], seed=0)  # warm-up: lazy imports, dispatch

    def run_all(pipeline):
        start = time.perf_counter()
        results = [pipeline.compile(circuit, seed=0) for circuit in circuits]
        return results, time.perf_counter() - start

    off_results, off_s = run_all(off)
    on_results, on_s = run_all(on)
    layers = {
        f"{family}{NUM_QUBITS}": {
            "off": off_result.logical_layers,
            "on": on_result.logical_layers,
        }
        for family, off_result, on_result in zip(FAMILIES, off_results, on_results)
    }

    # -- cache interaction: the rewrite stage is cacheable -----------------
    cache = MemoryCache()
    cached = on.with_cache(cache)
    cached.compile(circuits[0], seed=0)
    cold_hits, cold_misses = cache.hits, cache.misses
    cached.compile(circuits[0], seed=0)
    warm_hits = cache.hits - cold_hits

    snapshot = {
        "config": {
            "families": list(FAMILIES),
            "num_qubits": NUM_QUBITS,
            "fusion_success_rate": SETTINGS.fusion_success_rate,
            "lowering": "to_jcz(simplify=False)",
        },
        "python": platform.python_version(),
        "shrink": shrink,
        "online_reshape": {
            "off_s": off_s,
            "on_s": on_s,
            "on_over_off": off_s / on_s if on_s else float("inf"),
            "layers": layers,
        },
        "cache": {
            "cold_hits": cold_hits,
            "cold_misses": cold_misses,
            "warm_hits": warm_hits,
        },
    }
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    for name, row in shrink.items():
        assert row["contracted_pairs"] > 0, f"{name}: rewrite contracted nothing"
        assert row["shrink_pct"] >= SHRINK_FLOOR_PCT, (
            f"{name}: rewrite only shrank the pattern {row['shrink_pct']:.1f}% "
            f"(floor {SHRINK_FLOOR_PCT}%)"
        )
    for name, row in layers.items():
        assert row["on"] <= row["off"], (
            f"{name}: rewrite increased logical layers {row['off']} -> {row['on']}"
        )
    # At least one family must actually convert shrink into fewer layers.
    assert any(row["on"] < row["off"] for row in layers.values())
    # Re-compiling the identical job hits every cacheable stage: translate,
    # rewrite, offline-map, online-reshape.
    assert warm_hits == 4, f"warm re-compile hit {warm_hits} stages, expected 4"
