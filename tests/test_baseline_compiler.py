"""Tests for the OneQ baseline and the end-to-end OnePerc compiler."""

import pytest

from repro.baseline import (
    OneQLayerPlan,
    OneQPlan,
    RepeatUntilSuccessExecutor,
    expected_rsl,
    plan_oneq,
    plan_width_for,
)
from repro.circuits import make_benchmark, qaoa
from repro.graphstate import ResourceStateSpec
from repro.hardware import HardwareConfig
from repro.ir import lower_ir
from repro.mbqc import translate_circuit
from repro.pipeline import Pipeline, PipelineSettings, baseline_passes
from repro.pipeline.settings import rsl_size_for, virtual_size_for


def tiny_plan(intra=3, inter=1, depth=4):
    return OneQPlan(
        layers=[OneQLayerPlan(intra, inter) for _ in range(depth)],
        plan_width=4,
        node_count=depth,
    )


class TestOneQPlanner:
    def test_plan_width_scales_with_rsl(self):
        assert plan_width_for(HardwareConfig(rsl_size=12)) == 4
        assert plan_width_for(HardwareConfig(rsl_size=240)) == 12

    def test_plan_counts(self):
        pattern = translate_circuit(qaoa(4, seed=0))
        config = HardwareConfig(rsl_size=24, resource_state=ResourceStateSpec(4))
        plan = plan_oneq(pattern, config)
        assert plan.depth >= 1
        assert plan.total_fusions > 0
        # Merging contributes (m-1) root-leaf fusions per occupied site.
        assert sum(layer.intra_fusions for layer in plan.layers) >= 2 * plan.node_count

    def test_plan_has_inter_layer_fusions(self):
        pattern = translate_circuit(qaoa(4, seed=0))
        config = HardwareConfig(rsl_size=24)
        plan = plan_oneq(pattern, config)
        assert sum(layer.inter_fusions for layer in plan.layers) > 0


class TestRetryExecutor:
    def test_perfect_fusions_one_pass(self):
        executor = RepeatUntilSuccessExecutor(1.0, rng=0)
        result = executor.run(tiny_plan())
        assert result.rsl_count == 4
        assert result.restarts == 0
        assert not result.capped

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            RepeatUntilSuccessExecutor(0.0)

    def test_cap_reported(self):
        plan = tiny_plan(intra=5000, depth=1)  # p^5000 underflows to 0
        executor = RepeatUntilSuccessExecutor(0.75, rsl_cap=100, rng=0)
        result = executor.run(plan)
        assert result.capped
        assert result.rsl_count >= 100

    def test_cap_raises_when_requested(self):
        from repro.errors import BaselineExploded

        plan = tiny_plan(intra=5000, depth=1)
        executor = RepeatUntilSuccessExecutor(0.75, rsl_cap=100, rng=0)
        with pytest.raises(BaselineExploded):
            executor.run(plan, raise_on_cap=True)

    def test_monte_carlo_matches_expectation(self):
        plan = tiny_plan(intra=4, inter=1, depth=3)
        p = 0.9
        expectation = expected_rsl(plan, p)
        executor = RepeatUntilSuccessExecutor(p, rng=1)
        samples = [executor.run(plan).rsl_count for _ in range(400)]
        mean = sum(samples) / len(samples)
        assert abs(mean - expectation) / expectation < 0.25

    def test_expected_rsl_explodes_gracefully(self):
        plan = tiny_plan(intra=3000, depth=1)
        assert expected_rsl(plan, 0.75) > 10**12  # astronomically infeasible

    def test_lower_rate_consumes_more(self):
        plan = tiny_plan(intra=6, inter=1, depth=3)
        high = RepeatUntilSuccessExecutor(0.95, rng=2).run(plan).rsl_count
        low = RepeatUntilSuccessExecutor(0.75, rng=2).run(plan).rsl_count
        assert low > high


class TestSizing:
    def test_virtual_size_table1(self):
        assert virtual_size_for(4) == 2
        assert virtual_size_for(9) == 3
        assert virtual_size_for(25) == 5
        assert virtual_size_for(64) == 8
        assert virtual_size_for(100) == 10

    def test_virtual_size_non_square(self):
        assert virtual_size_for(10) == 4

    def test_rsl_size_table1(self):
        # Table 1: 4 qubits -> 24x24 at 0.90 and 48x48 at 0.75.
        assert rsl_size_for(4, 0.90) == 24
        assert rsl_size_for(4, 0.75) == 48
        assert rsl_size_for(25, 0.75) == 120
        assert rsl_size_for(100, 0.75) == 240


class TestOnePercCompiler:
    @pytest.fixture(scope="class")
    def result(self):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.75,
                resource_state_size=4,
                max_rsl=10**5,
            ),
            seed=3,
        )
        return compiler.compile(make_benchmark("qaoa", 4, seed=1))

    def test_produces_positive_metrics(self, result):
        assert result.rsl_count > 0
        assert result.fusion_count > 0
        assert result.logical_layers == result.mapping.layer_count

    def test_pl_ratio_consistency(self, result):
        assert result.pl_ratio == pytest.approx(
            result.rsl_count / result.logical_layers
        )

    def test_online_time_per_rsl(self, result):
        assert result.online_seconds_per_rsl > 0

    def test_compile_baseline_runs(self):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.9,
                resource_state_size=4,
                max_rsl=10**4,
            ),
            passes=baseline_passes(),
            seed=3,
        )
        baseline = compiler.compile(make_benchmark("vqe", 4, seed=1))
        assert baseline.rsl_count > 0

    def test_oneq_explodes_at_practical_rate(self):
        """The paper's headline: OneQ hits the cap at p = 0.75."""
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.75,
                resource_state_size=4,
                max_rsl=5000,
            ),
            passes=baseline_passes(),
            seed=0,
        )
        baseline = compiler.compile(make_benchmark("qft", 4))
        assert baseline.capped

    def test_oneperc_survives_practical_rate(self):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.75,
                resource_state_size=4,
                max_rsl=10**5,
            ),
            seed=0,
        )
        result = compiler.compile(make_benchmark("qft", 4))
        assert result.rsl_count < 2000

    def test_instructions_emitted_on_request(self):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.9,
                resource_state_size=4,
                max_rsl=10**5,
            ),
            seed=1,
        )
        result = compiler.compile(make_benchmark("qaoa", 4, seed=1))
        assert len(lower_ir(result.mapping.ir)) > 0

    def test_seeded_compilations_reproducible(self):
        def run():
            compiler = Pipeline(
                PipelineSettings(
                    fusion_success_rate=0.75,
                    resource_state_size=4,
                    max_rsl=10**5,
                ),
                seed=11,
            )
            return compiler.compile(make_benchmark("qaoa", 4, seed=2))

        first, second = run(), run()
        assert first.rsl_count == second.rsl_count
        assert first.fusion_count == second.fusion_count
