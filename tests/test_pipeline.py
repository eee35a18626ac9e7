"""Tests for the composable compiler-pass pipeline.

Covers the pass ordering / artifact contract, pickling for process-pool
workers, per-pass timings, and the vectorized ``components()`` hot path
against its union-find reference.
"""

import numpy as np
import pytest
from oracles import components_dsu, unrewritten_passes

from repro.circuits import make_benchmark
from repro.errors import CompilationError
from repro.online.percolation import sample_lattice
from repro.pipeline import (
    CompilerPass,
    OfflineMapPass,
    OnlineReshapePass,
    PassContext,
    Pipeline,
    PipelineSettings,
    TranslatePass,
    baseline_passes,
    default_passes,
)

SETTINGS = PipelineSettings(fusion_success_rate=0.75, max_rsl=10**5)


class TestPassContracts:
    def test_default_pass_order(self):
        names = [stage.name for stage in default_passes()]
        assert names == [
            "translate", "rewrite", "offline-map", "online-reshape",
        ]

    def test_default_passes_rewrite_off(self):
        """The unrewritten chain is the test oracle, the default chain minus
        its rewrite pass; the chain itself has no switch to turn it off."""
        names = [stage.name for stage in unrewritten_passes()]
        assert names == [
            stage.name for stage in default_passes() if stage.name != "rewrite"
        ]
        with pytest.raises(TypeError):
            default_passes("off")

    def test_missing_artifact_rejected_before_pass_runs(self):
        """Reordered stages fail loudly at the contract check."""
        pipeline = Pipeline(SETTINGS, passes=(OnlineReshapePass(), TranslatePass()))
        with pytest.raises(CompilationError, match="requires artifacts"):
            pipeline.run_circuit(make_benchmark("qaoa", 4, seed=0), seed=0)

    def test_broken_promise_rejected(self):
        class LyingPass(CompilerPass):
            name = "liar"
            provides = ("unicorn",)

            def run(self, ctx: PassContext) -> None:
                pass

        pipeline = Pipeline(SETTINGS, passes=(LyingPass(),))
        with pytest.raises(CompilationError, match="promised artifact"):
            pipeline.run_circuit(make_benchmark("qaoa", 4, seed=0), seed=0)

    def test_artifacts_flow_between_passes(self):
        captured = {}

        class ProbePass(CompilerPass):
            name = "probe"
            requires = ("pattern", "mapping")

            def run(self, ctx: PassContext) -> None:
                captured["pattern"] = ctx.require("pattern")
                captured["mapping"] = ctx.require("mapping")

        pipeline = Pipeline(
            SETTINGS, passes=(TranslatePass(), OfflineMapPass(), ProbePass())
        )
        ctx = pipeline.run_circuit(make_benchmark("qaoa", 4, seed=0), seed=0)
        assert captured["pattern"] is ctx.artifacts["pattern"]
        assert captured["mapping"] is ctx.artifacts["mapping"]
        assert captured["mapping"].layer_count > 0

    def test_ablated_pipeline_runs_offline_only(self):
        pipeline = Pipeline(SETTINGS, passes=(TranslatePass(), OfflineMapPass()))
        ctx = pipeline.run_circuit(make_benchmark("qaoa", 4, seed=0), seed=0)
        assert "mapping" in ctx.artifacts
        assert "reshape" not in ctx.artifacts


class TestTimings:
    def test_every_pass_timed(self):
        result = Pipeline(SETTINGS, seed=2).compile(make_benchmark("qaoa", 4, seed=2))
        names = [timing.name for timing in result.pass_timings]
        assert names == [
            "translate", "rewrite", "offline-map", "online-reshape",
        ]
        assert all(timing.seconds >= 0.0 for timing in result.pass_timings)
        assert result.offline_seconds == result.timings_by_pass["offline-map"]
        assert result.online_seconds == result.timings_by_pass["online-reshape"]
        assert result.online_seconds > 0


class TestPickling:
    CIRCUITS = [make_benchmark("qaoa", 4, seed=5)]

    @staticmethod
    def _metrics(results):
        return [(r.rsl_count, r.fusion_count, r.logical_layers) for r in results]

    def test_jobs_and_results_are_picklable(self):
        # The process runner's contract: pipelines, circuits, and both
        # result types round-trip through pickle unchanged where it counts.
        import pickle

        pipeline = Pipeline(SETTINGS, seed=5)
        clone = pickle.loads(pickle.dumps(pipeline))
        circuit = pickle.loads(pickle.dumps(self.CIRCUITS[0]))
        original = pipeline.compile(self.CIRCUITS[0])
        from_clone = clone.compile(circuit)
        assert self._metrics([original]) == self._metrics([from_clone])
        restored = pickle.loads(pickle.dumps(original))
        assert restored.rsl_count == original.rsl_count
        baseline = Pipeline(
            PipelineSettings(fusion_success_rate=0.9, max_rsl=10**4),
            passes=baseline_passes(),
            seed=0,
        ).compile(self.CIRCUITS[0])
        assert pickle.loads(pickle.dumps(baseline)).rsl_count == baseline.rsl_count


class TestVectorizedComponents:
    """The numpy flood fill must agree exactly with the union-find oracle."""

    @pytest.mark.parametrize("trial", range(10))
    def test_partition_parity_random_lattices(self, trial):
        rng = np.random.default_rng(trial)
        size = int(rng.integers(1, 24))
        alive = rng.random((size, size)) < 0.85
        lattice = sample_lattice(size, float(rng.random()), rng, site_alive=alive)
        fast = lattice.components()
        slow = components_dsu(lattice)
        assert len(fast) == len(slow)
        assert fast.component_count == slow.component_count
        fast_parts = {frozenset(sites) for sites in fast.components().values()}
        slow_parts = {frozenset(sites) for sites in slow.components().values()}
        assert fast_parts == slow_parts
        assert sorted(map(len, (fast.largest_component(),))) == sorted(
            map(len, (slow.largest_component(),))
        )

    def test_connected_queries(self):
        lattice = sample_lattice(8, 1.0, rng=0)
        components = lattice.components()
        assert components.connected((0, 0), (7, 7))
        lattice.remove_site((0, 1))
        lattice.remove_site((1, 0))
        isolated = lattice.components()
        assert not isolated.connected((0, 0), (7, 7))
        assert isolated.component_size((7, 7)) == 61  # 64 - 2 dead - isolated corner

    def test_dead_site_queries(self):
        alive = np.ones((3, 3), dtype=bool)
        alive[1, 1] = False
        lattice = sample_lattice(3, 1.0, rng=0, site_alive=alive)
        components = lattice.components()
        assert (1, 1) not in components
        with pytest.raises(KeyError):
            components.find((1, 1))

    def test_spans_rows_matches_pairwise_definition(self):
        for seed in range(12):
            lattice = sample_lattice(10, 0.5, rng=seed)
            dsu = components_dsu(lattice)
            top = [(0, c) for c in range(10) if lattice.sites[0, c]]
            bottom = [(9, c) for c in range(10) if lattice.sites[9, c]]
            brute = any(dsu.connected(a, b) for a in top for b in bottom)
            assert lattice.spans_rows() == brute
