"""The pass ecosystem: rewrite, device validators, and the pass registry."""

import dataclasses
import json

import pytest
from oracles import unrewritten_passes

from repro.circuits.benchmarks import BENCHMARKS, make_benchmark
from repro.circuits.jcz import to_jcz
from repro.errors import ReproError
from repro.experiments import CompileJob, experiment_names, get_experiment
from repro.mbqc.translate import translate_circuit
from repro.passes import (
    PASS_REGISTRY,
    ConnectivityValidatorPass,
    Diagnostic,
    RewritePass,
    RsgConstraintValidatorPass,
    StripBudgetValidatorPass,
    UnknownPassError,
    ValidationError,
    get_pass,
    pass_names,
)
from repro.passes.validators import DIAGNOSTICS_SCHEMA_VERSION
from repro.pipeline import MemoryCache, Pipeline, PipelineSettings
from repro.pipeline.passes import TranslatePass

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, resource_state_size=4, node_side=12, max_rsl=10**5
)

CIRCUIT = make_benchmark("qaoa", 4, seed=0)
#: The unsimplified {J, CZ} lowering: the shape where the rewrite pass has
#: real zero-angle pairs to contract.
UNSIMPLIFIED = to_jcz(CIRCUIT, simplify=False)


def _deterministic(result):
    return (result.rsl_count, result.fusion_count, result.logical_layers)


def _builtin_circuits() -> list[tuple[str, int, int]]:
    """(family, qubits, circuit seed) of every circuit a built-in workload
    compiles: each compile job of every registered experiment at every
    scale and seeds 0-2, plus every family at 2-16 qubits (rca from 4, its
    smallest adder) and seeds 0-2."""
    keys = {
        (family, qubits, seed)
        for family in BENCHMARKS
        for qubits in range(4 if family == "rca" else 2, 17)
        for seed in range(3)
    }
    for name in experiment_names():
        experiment = get_experiment(name)
        for scale in experiment.scales:
            for seed in range(3):
                keys.update(
                    (job.family, job.num_qubits, job.benchmark_seed)
                    for job in experiment.build_jobs(scale, seed)
                    if isinstance(job, CompileJob)
                )
    return sorted(keys)


class TestRewritePass:
    def test_contracts_unsimplified_lowering(self):
        pattern = translate_circuit(UNSIMPLIFIED)
        before = pattern.node_count
        ctx = SETTINGS.context_for(UNSIMPLIFIED)
        ctx.put("pattern", pattern)
        RewritePass().run(ctx)
        assert ctx.metrics["rewrite_contracted_pairs"] > 0
        assert ctx.metrics["rewrite_nodes_before"] == before
        assert ctx.metrics["rewrite_nodes_after"] == pattern.node_count
        assert pattern.node_count < before

    def test_noop_on_simplified_lowering(self):
        """The default translate path is already simplified, so the rewrite
        finds nothing and the default chain matches the unrewritten oracle."""
        on = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        off = Pipeline(SETTINGS, passes=unrewritten_passes()).compile(CIRCUIT, seed=1)
        assert on.metrics["rewrite_contracted_pairs"] == 0
        assert _deterministic(on) == _deterministic(off)

    def test_rewrite_on_off_share_only_translate(self):
        cache = MemoryCache()
        Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        stored = len(cache)
        off = Pipeline(SETTINGS, passes=unrewritten_passes(), cache=cache).compile(
            CIRCUIT, seed=0
        )
        # translate reads only the circuit, so the unrewritten chain shares
        # it; offline-map's input comes from translate, not rewrite, so its
        # key differs and it and online-reshape miss.
        assert (off.metrics["cache_hits"], off.metrics["cache_misses"]) == (1, 2)
        assert len(cache) == stored + 2
        assert _deterministic(off) == _deterministic(
            Pipeline(SETTINGS, passes=unrewritten_passes()).compile(CIRCUIT, seed=0)
        )

    def test_contracts_nothing_on_builtin_circuits(self):
        """Why the rewrite needs no off switch: translate already simplifies
        every built-in circuit, so on them the pass is the identity and the
        default chain equals the unrewritten one."""
        circuits = _builtin_circuits()
        assert ("qft", 64, 0) in circuits and ("rca", 4, 2) in circuits
        for family, qubits, seed in circuits:
            ctx = SETTINGS.context_for(make_benchmark(family, qubits, seed=seed))
            TranslatePass().run(ctx)
            before = ctx.require("pattern").node_count
            RewritePass().run(ctx)
            assert ctx.metrics["rewrite_contracted_pairs"] == 0, (family, qubits, seed)
            assert ctx.require("pattern").node_count == before

    def test_compile_deterministic_with_rewrite(self):
        a = Pipeline(SETTINGS).compile(UNSIMPLIFIED, seed=3)
        b = Pipeline(SETTINGS).compile(UNSIMPLIFIED, seed=3)
        assert _deterministic(a) == _deterministic(b)
        assert a.metrics == b.metrics


class TestValidators:
    def test_connectivity_width_rejects_oversized_circuit(self):
        settings = dataclasses.replace(SETTINGS, virtual_size=2, rsl_size=24)
        ctx = settings.context_for(make_benchmark("qft", 25, seed=0))
        with pytest.raises(ValidationError) as excinfo:
            ConnectivityValidatorPass().run(ctx)
        (diag,) = [d for d in excinfo.value.diagnostics if d.severity == "error"]
        assert diag.rule == "connectivity/width"
        assert diag.location["qubits"] == 25

    def test_connectivity_degree_rejects_dense_pattern(self):
        config, _ = SETTINGS.hardware_for(4)
        width = config.site_degree + 2
        from repro.circuits.circuit import Circuit
        from repro.circuits.gates import Gate

        dense = Circuit(width, name="dense")
        for wire in range(1, width):
            dense.append(Gate("cz", (0, wire), ()))
        pattern = translate_circuit(dense)
        ctx = SETTINGS.context_for(dense)
        ctx.put("pattern", pattern)
        with pytest.raises(ValidationError) as excinfo:
            ConnectivityValidatorPass().run(ctx)
        rules = {d.rule for d in excinfo.value.diagnostics}
        assert "connectivity/degree" in rules

    def test_strip_width_error_and_alignment_warning(self):
        narrow = dataclasses.replace(SETTINGS, rsl_size=3, virtual_size=2)
        with pytest.raises(ValidationError) as excinfo:
            StripBudgetValidatorPass().run(narrow.context_for(CIRCUIT))
        assert excinfo.value.diagnostics[0].rule == "strip/width"

        misaligned = dataclasses.replace(SETTINGS, rsl_size=25, virtual_size=2)
        ctx = misaligned.context_for(CIRCUIT)
        StripBudgetValidatorPass().run(ctx)  # warning only: no raise
        assert ctx.metrics["validate-strip-budget_warnings"] == 1

    def test_rsl_budget_error_names_the_pattern(self):
        tight = dataclasses.replace(SETTINGS, max_rsl=1)
        ctx = tight.context_for(CIRCUIT)
        ctx.put("pattern", translate_circuit(CIRCUIT))
        with pytest.raises(ValidationError) as excinfo:
            StripBudgetValidatorPass().run(ctx)
        (diag,) = [d for d in excinfo.value.diagnostics if d.severity == "error"]
        assert diag.rule == "strip/rsl-budget"
        assert diag.location["max_rsl"] == 1

    def test_rsg_fusion_rate_floor_and_warning_band(self):
        dead = dataclasses.replace(SETTINGS, fusion_success_rate=0.2)
        with pytest.raises(ValidationError) as excinfo:
            RsgConstraintValidatorPass().run(dead.context_for(CIRCUIT))
        assert any(
            d.rule == "rsg/fusion-rate" and d.severity == "error"
            for d in excinfo.value.diagnostics
        )
        marginal = dataclasses.replace(SETTINGS, fusion_success_rate=0.4)
        ctx = marginal.context_for(CIRCUIT)
        RsgConstraintValidatorPass().run(ctx)  # warning band: no raise
        assert ctx.metrics["validate-rsg_warnings"] >= 1

    def test_validation_error_json_shape(self):
        diag = Diagnostic(
            rule="rsg/degree", severity="error", message="m", location={"k": 1}
        )
        payload = json.loads(ValidationError("validate-rsg", [diag]).to_json())
        assert payload["error"] == "validation"
        assert payload["schema"] == DIAGNOSTICS_SCHEMA_VERSION
        assert payload["validator"] == "validate-rsg"
        assert "rsg/degree" in payload["summary"]
        assert payload["diagnostics"] == [
            {"rule": "rsg/degree", "severity": "error", "message": "m",
             "location": {"k": 1}}
        ]

    def test_validators_are_pure_gates(self):
        """A passing validator changes nothing deterministic about the
        compilation it gates."""
        plain = Pipeline(SETTINGS).compile(CIRCUIT, seed=2)
        gated_pipeline = Pipeline(SETTINGS)
        for cls in (
            ConnectivityValidatorPass, StripBudgetValidatorPass,
            RsgConstraintValidatorPass,
        ):
            gated_pipeline = gated_pipeline.insert_pass(cls(), after="translate")
        gated = gated_pipeline.compile(CIRCUIT, seed=2)
        assert _deterministic(gated) == _deterministic(plain)

    def test_unsupported_program_form_rejected(self):
        ctx = SETTINGS.context_for(CIRCUIT)
        with pytest.raises(ReproError, match="cannot check"):
            ConnectivityValidatorPass().check(42, ctx)


class TestRegistry:
    def test_names_and_lookup(self):
        assert pass_names() == list(PASS_REGISTRY)
        assert get_pass("rewrite") is RewritePass
        assert get_pass("validate-rsg") is RsgConstraintValidatorPass

    def test_unknown_name_lists_registry(self):
        with pytest.raises(UnknownPassError) as excinfo:
            get_pass("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in pass_names():
            assert name in message

