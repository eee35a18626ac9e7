"""Device-validator passes: fail fast, with structured diagnostics.

Each validator checks a program against the resolved hardware profile
(:class:`~repro.hardware.architecture.HardwareConfig` plus the virtual
lattice size) *before* the expensive stages run, the way braket's emulator
passes gate device submission.  A violation surfaces as a
:class:`ValidationError` carrying machine-readable :class:`Diagnostic`
records — rule id, severity, message, location — instead of an attribute
crash deep inside offline mapping or online reshape.

The check dispatches on the program form via ``singledispatchmethod``
(:meth:`DeviceValidatorPass.check`): a :class:`~repro.circuits.circuit.
Circuit` is checked against the front-end rules, a
:class:`~repro.mbqc.pattern.MeasurementPattern` against the lattice-shape
rules, and a validator sees both when it runs after translate.  The JSON
shape of a failure is pinned by ``benchmarks/passes_schema.py`` and checked
in CI's pass-ecosystem smoke step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import singledispatchmethod
from typing import Any

from repro.circuits.circuit import Circuit
from repro.errors import ReproError
from repro.hardware.architecture import LATTICE_DEGREE_3D
from repro.mbqc.pattern import MeasurementPattern
from repro.pipeline.context import PassContext
from repro.pipeline.passes import CompilerPass

#: Version stamp on every diagnostics payload; bump on shape changes so the
#: CI schema checker rejects stale captures instead of mis-parsing them.
DIAGNOSTICS_SCHEMA_VERSION = 1

SEVERITIES = ("error", "warning")

#: Below 0.25 effective fusion rate even the merged lattice cannot sustain
#: bond percolation (Section 5.2's regime floor): reject outright.  Between
#: the floor and 0.5, compilation works but RSL consumption explodes — warn.
MIN_FUSION_RATE = 0.25
WARN_FUSION_RATE = 0.5

#: A renormalization strip narrower than this cannot carve a node column
#: out of the percolated lattice (Section 5.1).
MIN_STRIP_WIDTH = 2


@dataclass(frozen=True)
class Diagnostic:
    """One validator finding, JSON-ready.

    ``rule`` is a stable ``family/check`` identifier (e.g.
    ``"connectivity/width"``); ``location`` pins the finding to a concrete
    place in the program (circuit name, node id, ...) so tooling can point
    at it without parsing the message.
    """

    rule: str
    severity: str
    message: str
    location: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "location": dict(self.location),
        }


class ValidationError(ReproError):
    """A device validator rejected the program.

    Carries the full diagnostic list (warnings included, for context);
    :meth:`to_json` is the wire shape the CLI prints on exit 2 and the
    serve layer folds into its error frames.
    """

    def __init__(self, validator: str, diagnostics: tuple[Diagnostic, ...] | list[Diagnostic]):
        self.validator = validator
        self.diagnostics = tuple(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        rules = ", ".join(d.rule for d in errors)
        super().__init__(
            f"validator {validator!r} rejected the program: "
            f"{len(errors)} error(s) [{rules}]"
        )

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "error": "validation",
            "schema": DIAGNOSTICS_SCHEMA_VERSION,
            "validator": self.validator,
            "summary": str(self),
            "diagnostics": [d.to_json_obj() for d in self.diagnostics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


class DeviceValidatorPass(CompilerPass):
    """Base validator: check program forms against the hardware profile.

    Subclasses implement :meth:`check_circuit` and/or :meth:`check_pattern`
    returning :class:`Diagnostic` lists; :meth:`run` routes the context's
    circuit (and the ``pattern`` artifact, when an earlier pass produced
    one) through the :meth:`check` single-dispatch front door, counts
    warnings into the metrics, and raises :class:`ValidationError` on any
    error-severity finding.  Validators require and provide nothing — they
    are pure gates, insertable at any slot.
    """

    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    cacheable = False
    #: Where the CLI's ``--passes`` front door slots validators by default:
    #: right after translate, so pattern-shape rules see the real pattern.
    default_slot = "translate"

    def run(self, ctx: PassContext) -> None:
        diagnostics = list(self.check(ctx.circuit, ctx))
        pattern = ctx.get("pattern")
        if pattern is not None:
            diagnostics.extend(self.check(pattern, ctx))
        warnings = [d for d in diagnostics if d.severity == "warning"]
        if warnings:
            key = f"{self.name}_warnings"
            ctx.metrics[key] = ctx.metrics.get(key, 0) + len(warnings)
        if any(d.severity == "error" for d in diagnostics):
            raise ValidationError(self.name, diagnostics)

    @singledispatchmethod
    def check(self, program: Any, ctx: PassContext) -> list[Diagnostic]:
        raise ReproError(
            f"validator {self.name!r} cannot check a "
            f"{type(program).__name__}; accepted program forms: "
            "Circuit, MeasurementPattern"
        )

    @check.register
    def _(self, program: Circuit, ctx: PassContext) -> list[Diagnostic]:
        return self.check_circuit(program, ctx)

    @check.register
    def _(self, program: MeasurementPattern, ctx: PassContext) -> list[Diagnostic]:
        return self.check_pattern(program, ctx)

    # Subclass hooks; the default is "no findings", so a validator only
    # implements the forms its rules actually inspect.

    def check_circuit(self, circuit: Circuit, ctx: PassContext) -> list[Diagnostic]:
        return []

    def check_pattern(
        self, pattern: MeasurementPattern, ctx: PassContext
    ) -> list[Diagnostic]:
        return []


class ConnectivityValidatorPass(DeviceValidatorPass):
    """The program must embed in the virtual lattice's connectivity."""

    name = "validate-connectivity"

    def check_circuit(self, circuit: Circuit, ctx: PassContext) -> list[Diagnostic]:
        diagnostics = []
        capacity = ctx.virtual_size * ctx.virtual_size
        if circuit.num_qubits > capacity:
            diagnostics.append(
                Diagnostic(
                    rule="connectivity/width",
                    severity="error",
                    message=(
                        f"{circuit.num_qubits} qubits exceed the "
                        f"{ctx.virtual_size}x{ctx.virtual_size} virtual "
                        f"lattice ({capacity} columns, one per qubit)"
                    ),
                    location={
                        "kind": "circuit",
                        "name": circuit.name,
                        "qubits": circuit.num_qubits,
                    },
                )
            )
        return diagnostics

    def check_pattern(
        self, pattern: MeasurementPattern, ctx: PassContext
    ) -> list[Diagnostic]:
        diagnostics = []
        limit = ctx.config.site_degree
        for node_id in sorted(pattern.nodes):
            degree = pattern.graph.degree(node_id)
            if degree > limit:
                diagnostics.append(
                    Diagnostic(
                        rule="connectivity/degree",
                        severity="error",
                        message=(
                            f"pattern node {node_id} has degree {degree}, "
                            f"above the merged-site degree {limit}"
                        ),
                        location={
                            "kind": "pattern-node",
                            "pattern": pattern.name,
                            "node": node_id,
                            "degree": degree,
                        },
                    )
                )
        return diagnostics


class StripBudgetValidatorPass(DeviceValidatorPass):
    """Renormalization strips and the RSL budget must be viable."""

    name = "validate-strip-budget"

    def check_circuit(self, circuit: Circuit, ctx: PassContext) -> list[Diagnostic]:
        diagnostics = []
        strip = ctx.config.rsl_size // ctx.virtual_size
        if strip < MIN_STRIP_WIDTH:
            diagnostics.append(
                Diagnostic(
                    rule="strip/width",
                    severity="error",
                    message=(
                        f"RSL size {ctx.config.rsl_size} over a "
                        f"{ctx.virtual_size}x{ctx.virtual_size} virtual "
                        f"lattice leaves {strip} rows per strip; "
                        f"renormalization needs >= {MIN_STRIP_WIDTH}"
                    ),
                    location={
                        "kind": "hardware",
                        "rsl_size": ctx.config.rsl_size,
                        "virtual_size": ctx.virtual_size,
                    },
                )
            )
        elif ctx.config.rsl_size % ctx.virtual_size:
            diagnostics.append(
                Diagnostic(
                    rule="strip/alignment",
                    severity="warning",
                    message=(
                        f"RSL size {ctx.config.rsl_size} is not a multiple "
                        f"of the virtual size {ctx.virtual_size}; "
                        f"{ctx.config.rsl_size % ctx.virtual_size} lattice "
                        "rows per layer go unused"
                    ),
                    location={
                        "kind": "hardware",
                        "rsl_size": ctx.config.rsl_size,
                        "virtual_size": ctx.virtual_size,
                    },
                )
            )
        return diagnostics

    def check_pattern(
        self, pattern: MeasurementPattern, ctx: PassContext
    ) -> list[Diagnostic]:
        diagnostics = []
        capacity = ctx.virtual_size * ctx.virtual_size
        layers_needed = -(-pattern.measured_count // capacity)  # ceil
        rsls_needed = layers_needed * ctx.config.merged_rsls_per_layer
        budget = ctx.settings.max_rsl
        if rsls_needed > budget:
            diagnostics.append(
                Diagnostic(
                    rule="strip/rsl-budget",
                    severity="error",
                    message=(
                        f"pattern needs >= {rsls_needed} RSLs "
                        f"({layers_needed} layers x "
                        f"{ctx.config.merged_rsls_per_layer} merged RSLs, "
                        "before any fusion failures) but the budget is "
                        f"{budget}"
                    ),
                    location={
                        "kind": "pattern",
                        "pattern": pattern.name,
                        "rsls_needed": rsls_needed,
                        "max_rsl": budget,
                    },
                )
            )
        return diagnostics


class RsgConstraintValidatorPass(DeviceValidatorPass):
    """The resource-state generator must sustain a 3D percolated lattice."""

    name = "validate-rsg"

    def check_circuit(self, circuit: Circuit, ctx: PassContext) -> list[Diagnostic]:
        diagnostics = []
        config = ctx.config
        if config.site_degree < LATTICE_DEGREE_3D:
            diagnostics.append(
                Diagnostic(
                    rule="rsg/degree",
                    severity="error",
                    message=(
                        f"merged site degree {config.site_degree} cannot "
                        f"reach the 3D lattice degree {LATTICE_DEGREE_3D} "
                        f"even after merging "
                        f"{config.merged_rsls_per_layer} RSLs"
                    ),
                    location={
                        "kind": "hardware",
                        "site_degree": config.site_degree,
                        "merged_rsls": config.merged_rsls_per_layer,
                    },
                )
            )
        rate = config.effective_fusion_rate
        if rate < MIN_FUSION_RATE:
            diagnostics.append(
                Diagnostic(
                    rule="rsg/fusion-rate",
                    severity="error",
                    message=(
                        f"effective fusion rate {rate:.3f} (success "
                        f"{config.fusion_success_rate} x photon survival) "
                        f"is below the percolation floor {MIN_FUSION_RATE}"
                    ),
                    location={
                        "kind": "hardware",
                        "effective_fusion_rate": round(rate, 6),
                        "photon_loss_rate": config.photon_loss_rate,
                    },
                )
            )
        elif rate < WARN_FUSION_RATE:
            diagnostics.append(
                Diagnostic(
                    rule="rsg/fusion-rate",
                    severity="warning",
                    message=(
                        f"effective fusion rate {rate:.3f} is below "
                        f"{WARN_FUSION_RATE}; expect heavy RSL consumption"
                    ),
                    location={
                        "kind": "hardware",
                        "effective_fusion_rate": round(rate, 6),
                        "photon_loss_rate": config.photon_loss_rate,
                    },
                )
            )
        if config.redundant_degree == 0:
            diagnostics.append(
                Diagnostic(
                    rule="rsg/redundancy",
                    severity="warning",
                    message=(
                        "no redundant leaves after the six 3D bonds: "
                        "every fusion failure costs a lattice bond outright"
                    ),
                    location={
                        "kind": "hardware",
                        "site_degree": config.site_degree,
                    },
                )
            )
        return diagnostics
