"""The OnePerc compilation record :meth:`Pipeline.compile` returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.offline.mapper import MappingResult
from repro.online.timelike import ReshapeMetrics
from repro.pipeline.context import DeferredArtifact, PassTiming, aggregate_timings


@dataclass
class CompilationResult:
    """Everything measured for one program compilation.

    ``mapping`` may be bound from a cache hit still pickled; it is loaded
    on first read (see :data:`CompilationResult.mapping`).
    """

    circuit_name: str
    num_qubits: int
    rsl_count: int
    fusion_count: int
    logical_layers: int
    mapping: MappingResult
    reshape: ReshapeMetrics
    offline_seconds: float
    online_seconds: float
    pass_timings: list[PassTiming] = field(default_factory=list, repr=False)
    #: The compilation's ``PassContext.metrics`` (logical layers mapped,
    #: peak memory, cache hit/miss counts, ...) — the provenance channel the
    #: experiment layer surfaces into ``ExperimentRecord.metrics``.
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def pl_ratio(self) -> float:
        return self.reshape.pl_ratio

    def fields(self) -> dict:
        """The deterministic summary: what records, payloads and reports show."""
        return {
            "rsl_count": int(self.rsl_count),
            "fusion_count": int(self.fusion_count),
            "logical_layers": int(self.logical_layers),
            "pl_ratio": float(self.pl_ratio),
        }

    @property
    def online_seconds_per_rsl(self) -> float:
        if self.rsl_count == 0:
            return float("nan")
        return self.online_seconds / self.rsl_count

    @property
    def timings_by_pass(self) -> dict[str, float]:
        """Pass name -> seconds, for reports and the CLI's ``--json``."""
        return aggregate_timings(self.pass_timings)


def _get_mapping(result: CompilationResult) -> MappingResult:
    mapping = result.__dict__["_mapping"]
    if type(mapping) is DeferredArtifact:
        mapping = result.__dict__["_mapping"] = mapping.load()
    return mapping


def _set_mapping(result: CompilationResult, mapping) -> None:
    result.__dict__["_mapping"] = mapping


# Installed after the dataclass is built, so ``mapping`` stays an ordinary
# constructor field while reads go through the loader: a warm compile
# whose caller never reads the IR never unpickles it.
CompilationResult.mapping = property(
    _get_mapping, _set_mapping, doc="The offline mapping, loaded on first read."
)
