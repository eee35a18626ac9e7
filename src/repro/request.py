"""The request schema shared by the CLI and the compile service.

A compile or an experiment is one *request*: an ``op`` plus named fields.
The CLI (``compile``, ``baseline``, ``experiment``, ``submit``) and the
server (:mod:`repro.serve.protocol`) read the field tables here, whose
compile defaults are read off
:class:`~repro.pipeline.settings.PipelineSettings`.  :func:`normalize`
fills a request's defaults, :func:`build_compile` turns a compile request
into its ``(circuit, pipeline)``, and :func:`compile_payload` is the
outcome both doors report.  Nothing here imports :mod:`repro.serve`.
"""

from __future__ import annotations

from typing import Any

from repro.circuits.benchmarks import make_benchmark
from repro.errors import ReproError
from repro.passes import insert_passes
from repro.pipeline import Pipeline, PipelineSettings, baseline_passes, cache_summary


class ProtocolError(ReproError):
    """Malformed request or frame (bad JSON, unknown op, wrong types)."""


class RequestError(ReproError):
    """A request naming work that cannot exist (e.g. a circuit its
    family's factory rejects)."""


_NoneType = type(None)
_SETTINGS = PipelineSettings()

#: op -> (required ``field: types``, optional ``field: (types, default)``).
#: Floats admit ints (JSON has one number type); bools are never numbers.
REQUEST_FIELDS: dict[str, tuple[dict, dict]] = {
    "experiment": (
        {"name": (str,)},
        {
            "scale": ((str,), "bench"),
            "seed": ((int,), 0),
            "runner": ((str,), "serial"),
            "workers": ((int, _NoneType), None),
        },
    ),
    "compile": (
        {"benchmark": (str,), "qubits": (int,)},
        {
            "rate": ((int, float), _SETTINGS.fusion_success_rate),
            "stars": ((int,), _SETTINGS.resource_state_size),
            "seed": ((int,), 0),
            "rsl_size": ((int, _NoneType), _SETTINGS.rsl_size),
            "virtual_size": ((int, _NoneType), _SETTINGS.virtual_size),
            "max_rsl": ((int,), _SETTINGS.max_rsl),
            "passes": ((str, _NoneType), None),
        },
    ),
}
REQUEST_FIELDS["baseline"] = REQUEST_FIELDS["compile"]


def _check_type(op: str, field: str, value: Any, types: tuple) -> None:
    if isinstance(value, bool) and bool not in types:
        raise ProtocolError(f"{op}: field {field!r} is a bool, expected number")
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in types)
        raise ProtocolError(
            f"{op}: field {field!r} is {type(value).__name__}, expected {names}"
        )


def normalize(
    obj: Any,
    spec: dict[str, tuple[dict, dict]] = REQUEST_FIELDS,
    common: dict[str, tuple[tuple, Any]] | None = None,
) -> dict[str, Any]:
    """Normalize one request against ``spec``; raises :class:`ProtocolError`.

    Returns a *new* dict with every optional field (and every ``common``
    field, which any op may carry) present, defaults filled in: two
    requests omitting vs. spelling out a default normalize identically.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"request is not a JSON object: {obj!r}")
    op = obj.get("op")
    if not isinstance(op, str) or op not in spec:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of: {', '.join(spec)}"
        )
    required, optional = spec[op]
    optional = {**optional, **(common or {})}
    unknown = sorted(set(obj) - {"op", *required, *optional})
    if unknown:
        raise ProtocolError(f"{op}: unknown fields {unknown}")
    request: dict[str, Any] = {"op": op}
    for field, types in required.items():
        if field not in obj:
            raise ProtocolError(f"{op}: missing required field {field!r}")
        _check_type(op, field, obj[field], types)
        request[field] = obj[field]
    for field, (types, default) in optional.items():
        value = obj.get(field, default)
        _check_type(op, field, value, types)
        request[field] = value
    return request


def settings_for(request: dict[str, Any]) -> PipelineSettings:
    """The settings a normalized compile/baseline request names."""
    return PipelineSettings(
        fusion_success_rate=request["rate"],
        resource_state_size=request["stars"],
        rsl_size=request["rsl_size"],
        virtual_size=request["virtual_size"],
        max_rsl=request["max_rsl"],
    )


def build_compile(request: dict[str, Any], cache=None):
    """``(circuit, pipeline)`` for a normalized compile/baseline request.

    A circuit the family's factory rejects raises :class:`RequestError`,
    a bad ``passes`` entry what :func:`~repro.passes.insert_passes` raises.
    """
    try:
        circuit = make_benchmark(
            request["benchmark"], request["qubits"], seed=request["seed"]
        )
    except ReproError as exc:  # unknown family, or a size it rejects
        raise RequestError(str(exc)) from exc
    pipeline = Pipeline(
        settings_for(request),
        passes=baseline_passes() if request["op"] == "baseline" else None,
        seed=request["seed"],
        cache=cache,
    )
    return circuit, insert_passes(pipeline, request["passes"])


def compile_payload(circuit, result) -> dict[str, Any]:
    """One compile's reported outcome: the circuit, the result's
    ``fields()``, its pass timings and its cache counts."""
    return {
        "benchmark": circuit.name,
        "num_qubits": circuit.num_qubits,
        **result.fields(),
        "pass_timings": result.timings_by_pass,
        "cache": cache_summary(
            int(result.metrics.get("cache_hits", 0)),
            int(result.metrics.get("cache_misses", 0)),
        ),
    }
