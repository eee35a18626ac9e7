"""The pass ecosystem: optimization + device validation for the pipeline slot.

The slot between translate and offline-map (insertable since the pipeline
refactor, via :meth:`~repro.pipeline.pipeline.Pipeline.insert_pass`) hosts
two pass families, modeled on the braket emulator-pass shape:

* :class:`~repro.passes.rewrite.RewritePass` — zero-angle pair contraction
  that shrinks the MBQC pattern before mapping (always in the default
  chain);
* device validators (:mod:`repro.passes.validators`) — fail-fast gates
  checking the program against the hardware profile, with structured JSON
  diagnostics.

:data:`PASS_REGISTRY` names the insertable passes for the CLI's
``--passes`` flag and the serve ``passes`` field; :func:`get_pass`
resolves a name or raises :class:`UnknownPassError` listing the registry
(the same contract as the experiment registry), and :func:`insert_passes`
puts a comma-separated list of them into a pipeline.
"""

from repro.errors import ReproError
from repro.passes.rewrite import RewritePass
from repro.passes.validators import (
    DIAGNOSTICS_SCHEMA_VERSION,
    SEVERITIES,
    ConnectivityValidatorPass,
    DeviceValidatorPass,
    Diagnostic,
    RsgConstraintValidatorPass,
    StripBudgetValidatorPass,
    ValidationError,
)


class UnknownPassError(ReproError):
    """An unregistered pass name was requested."""


#: Insertable-by-name passes (the ``--passes`` vocabulary).  Values are
#: classes: every CLI use gets a fresh instance, so pass objects are never
#: shared between pipelines.
PASS_REGISTRY: dict[str, type] = {
    RewritePass.name: RewritePass,
    ConnectivityValidatorPass.name: ConnectivityValidatorPass,
    StripBudgetValidatorPass.name: StripBudgetValidatorPass,
    RsgConstraintValidatorPass.name: RsgConstraintValidatorPass,
}


def pass_names() -> list[str]:
    """Registered pass names, in registration order."""
    return list(PASS_REGISTRY)


def get_pass(name: str) -> type:
    """Resolve a registered pass class; unknown names list the registry."""
    try:
        return PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(PASS_REGISTRY) or "<none>"
        raise UnknownPassError(
            f"unknown pass {name!r}; registered passes: {known}"
        ) from None


def insert_passes(pipeline, spec: str | None):
    """``pipeline`` with every pass named in ``spec`` at its default slot.

    ``spec`` is a comma-separated list of registered names (``None`` or
    empty inserts nothing).  Unknown names raise :class:`UnknownPassError`
    and bad insertions :class:`~repro.pipeline.PassInsertionError`.
    """
    names = [name.strip() for name in (spec or "").split(",") if name.strip()]
    # Reversed so the chain order after the slot matches the listed order.
    for name in reversed(names):
        cls = get_pass(name)
        pipeline = pipeline.insert_pass(
            cls(), after=getattr(cls, "default_slot", None)
        )
    return pipeline


__all__ = [
    "DIAGNOSTICS_SCHEMA_VERSION",
    "ConnectivityValidatorPass",
    "DeviceValidatorPass",
    "Diagnostic",
    "PASS_REGISTRY",
    "RewritePass",
    "RsgConstraintValidatorPass",
    "SEVERITIES",
    "StripBudgetValidatorPass",
    "UnknownPassError",
    "ValidationError",
    "get_pass",
    "insert_passes",
    "pass_names",
]
