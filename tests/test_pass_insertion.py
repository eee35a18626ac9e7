"""Pass insertion: anchors, the static chain contract, and cache rewrap."""

import pytest

from repro.baseline.retry import BaselineResult
from repro.circuits.benchmarks import make_benchmark
from repro.passes import ConnectivityValidatorPass, RewritePass
from repro.pipeline import (
    MemoryCache,
    PassInsertionError,
    Pipeline,
    PipelineSettings,
    baseline_passes,
    check_chain,
)
from repro.pipeline.context import PassContext
from repro.pipeline.passes import CompilerPass
from repro.pipeline.pipeline import TranslatePass, default_passes

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, resource_state_size=4, node_side=12, max_rsl=10**5
)

CIRCUIT = make_benchmark("qaoa", 4, seed=0)


class NullPass(CompilerPass):
    name = "null"

    def run(self, ctx: PassContext) -> None:
        pass


def _names(pipeline):
    return [stage.name for stage in pipeline.passes]


class TestAnchors:
    def test_insert_after_and_before(self):
        base = Pipeline(SETTINGS)
        after = base.insert_pass(ConnectivityValidatorPass(), after="translate")
        assert _names(after) == [
            "translate", "validate-connectivity", "rewrite", "offline-map",
            "online-reshape",
        ]
        before = base.insert_pass(ConnectivityValidatorPass(), before="rewrite")
        assert _names(before) == _names(after)

    def test_append_when_no_anchor(self):
        pipeline = Pipeline(SETTINGS).insert_pass(NullPass())
        assert _names(pipeline)[-1] == "null"

    def test_both_anchors_rejected(self):
        with pytest.raises(PassInsertionError) as excinfo:
            Pipeline(SETTINGS).insert_pass(
                NullPass(), after="translate", before="rewrite"
            )
        assert excinfo.value.kind == "anchor"

    def test_unknown_anchor_lists_chain(self):
        with pytest.raises(PassInsertionError) as excinfo:
            Pipeline(SETTINGS).insert_pass(NullPass(), after="no-such-pass")
        assert excinfo.value.kind == "anchor"
        message = str(excinfo.value)
        for name in _names(Pipeline(SETTINGS)):
            assert name in message

    def test_original_pipeline_unchanged(self):
        base = Pipeline(SETTINGS)
        base.insert_pass(NullPass(), after="translate")
        assert "null" not in _names(base)


class TestChainContract:
    def test_unsatisfied_requires_names_both_passes(self):
        """Inserting a pattern consumer before any provider exists must
        raise a structured error naming the new pass, the provider that
        comes too late, and the artifact."""
        with pytest.raises(PassInsertionError) as excinfo:
            Pipeline(SETTINGS).insert_pass(RewritePass(), before="translate")
        error = excinfo.value
        assert error.kind == "unsatisfied"
        assert error.new_pass == "rewrite"
        assert error.existing_pass == "translate"
        assert error.key == "pattern"
        assert "rewrite" in str(error) and "translate" in str(error)

    def test_requires_with_no_provider_anywhere(self):
        class Orphan(CompilerPass):
            name = "orphan"
            requires = ("unicorn",)

            def run(self, ctx: PassContext) -> None:
                pass

        with pytest.raises(PassInsertionError) as excinfo:
            Pipeline(SETTINGS).insert_pass(Orphan(), after="translate")
        assert excinfo.value.kind == "unsatisfied"
        assert excinfo.value.key == "unicorn"
        assert excinfo.value.existing_pass is None
        assert "no pass in the chain provides" in str(excinfo.value)

    def test_provides_collision_names_both_passes(self):
        """A second provider of ``pattern`` that does not also require it is
        not an in-place refinement — reject it, naming the incumbent (the
        chain's latest provider of the artifact)."""
        with pytest.raises(PassInsertionError) as excinfo:
            Pipeline(SETTINGS).insert_pass(TranslatePass(), after="rewrite")
        error = excinfo.value
        assert error.kind == "collision"
        assert error.new_pass == "translate"
        assert error.existing_pass == "rewrite"
        assert error.key == "pattern"
        assert "in-place refinement" in str(error)
        assert "translate" in str(error) and "rewrite" in str(error)

    def test_in_place_refinement_is_legal(self):
        """rewrite provides what translate provides — legal, because it also
        requires it (pattern -> pattern)."""
        pipeline = Pipeline(SETTINGS).insert_pass(RewritePass(), after="rewrite")
        assert _names(pipeline).count("rewrite") == 2
        result = pipeline.compile(CIRCUIT, seed=0)
        assert result.rsl_count > 0

    def test_check_chain_standalone(self):
        check_chain(default_passes())  # the default chain is self-consistent
        with pytest.raises(PassInsertionError):
            check_chain(tuple(reversed(default_passes())))


class TestCacheInteraction:
    def test_inserted_cacheable_pass_gets_wrapped(self):
        cache = MemoryCache()
        pipeline = Pipeline(SETTINGS, cache=cache).insert_pass(
            RewritePass(), after="rewrite"
        )
        # Both rewrites (built-in and inserted) are looked up in the cache.
        assert pipeline.cache is cache
        assert sum(stage.cacheable for stage in pipeline.passes) == 5
        cold = pipeline.compile(CIRCUIT, seed=0)
        warm = pipeline.compile(CIRCUIT, seed=0)
        # The duplicate rewrite's key chains on the first rewrite's output,
        # so the two never share an entry: 5 cold misses, 5 warm hits.
        assert cold.metrics["cache_misses"] == 5
        assert cold.metrics.get("cache_hits", 0) == 0
        assert warm.metrics["cache_hits"] == 5

    def test_inserted_validator_stays_unwrapped(self):
        pipeline = Pipeline(SETTINGS, cache=MemoryCache()).insert_pass(
            ConnectivityValidatorPass(), after="translate"
        )
        stage = pipeline.passes[1]
        assert type(stage).__name__ == "ConnectivityValidatorPass"

    def test_insertion_preserves_compilation_identity(self):
        plain = Pipeline(SETTINGS).compile(CIRCUIT, seed=5)
        gated = Pipeline(SETTINGS).insert_pass(
            ConnectivityValidatorPass(), after="translate"
        ).compile(CIRCUIT, seed=5)
        assert (plain.rsl_count, plain.fusion_count) == (
            gated.rsl_count, gated.fusion_count,
        )


class TestBaselineChain:
    """A baseline compiler is ``baseline_passes()``; insertions stay in it."""

    def test_inserted_validator_runs_inside_compile(self):
        pipeline = Pipeline(SETTINGS, passes=baseline_passes()).insert_pass(
            ConnectivityValidatorPass(), after="translate"
        )
        result = pipeline.compile(CIRCUIT, seed=0)
        assert isinstance(result, BaselineResult)
        assert list(result.timings_by_pass) == [
            "translate", "validate-connectivity", "baseline",
        ]

