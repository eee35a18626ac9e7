"""The shared state that flows through a compiler pipeline.

A :class:`PassContext` is created once per compilation and threaded through
every pass.  It carries the program being compiled, the resolved hardware
configuration, the settings it was made from, a dictionary of named
*artifacts* (the measurement pattern, the offline mapping, the reshape
metrics, ...), deterministic child RNG streams, and per-pass wall-clock
timings.  Passes communicate exclusively through artifacts — a pass never
calls another pass — which is what makes stages insertable, reorderable,
and ablatable.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuits.circuit import Circuit
from repro.errors import CompilationError
from repro.hardware.architecture import HardwareConfig
from repro.utils.rng import RandomStream

if TYPE_CHECKING:
    from repro.pipeline.settings import PipelineSettings


@dataclass(frozen=True)
class PassTiming:
    """Time spent inside one pass: when it started, wall clock, CPU split.

    ``seconds`` is wall-clock time (``time.perf_counter``).
    ``cpu_seconds`` is the executing thread's CPU time over the same
    interval (``time.thread_time``); the split is what lets summed pass
    timings from thread/process runners be reconciled against wall time —
    under contention wall exceeds CPU, and the ratio says by how much.
    ``start`` is the epoch second the pass began (``time.time``),
    comparable across processes on one host: it places the pass's trace
    span (see :meth:`repro.obs.Tracer.add_compile`).
    """

    name: str
    seconds: float
    cpu_seconds: float
    start: float


def aggregate_timings(timings: list[PassTiming]) -> dict[str, float]:
    """Pass name -> accumulated wall seconds, in execution order."""
    out: dict[str, float] = {}
    for timing in timings:
        out[timing.name] = out.get(timing.name, 0.0) + timing.seconds
    return out


class DeferredArtifact:
    """An artifact bound from a cache hit, still pickled.

    :meth:`load` unpickles a fresh copy on every call; if the blob does
    not load, ``recover`` (when given) recomputes the artifact instead.
    :class:`PassContext` loads a deferred artifact on its first
    ``require``/``get`` and keeps the loaded value, so a cache hit whose
    artifacts nobody reads never unpickles them.  Pickling a deferred
    artifact pickles its loaded value, so the recovery hook never crosses
    a process boundary.
    """

    __slots__ = ("blob", "recover")

    def __init__(self, blob: bytes, recover: Callable[[], Any] | None = None) -> None:
        self.blob = blob
        self.recover = recover

    def load(self) -> Any:
        try:
            return pickle.loads(self.blob)
        except Exception:
            if self.recover is None:
                raise
            return self.recover()

    def __reduce__(self):
        return _loaded, (self.load(),)


def _loaded(value: Any) -> Any:
    return value


@dataclass
class PassContext:
    """Everything a pass may read or produce during one compilation.

    ``artifacts`` is the inter-pass data bus: each pass declares which keys
    it ``requires`` and ``provides`` (see :class:`~repro.pipeline.passes.
    CompilerPass`), and the pipeline enforces the contract before running
    the pass.  ``settings`` is the :class:`~repro.pipeline.settings.
    PipelineSettings` the context was made from; passes read the knobs
    that are not part of the hardware config proper (refresh period, RSL
    cap, ...) from its typed fields, whose defaults live there alone.  An
    artifact bound from a cache hit sits in ``artifacts`` as a
    :class:`DeferredArtifact` until ``require``/``get`` first reads it.
    """

    circuit: Circuit
    config: HardwareConfig
    virtual_size: int
    stream: RandomStream
    settings: PipelineSettings
    artifacts: dict[str, Any] = field(default_factory=dict)
    timings: list[PassTiming] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Artifact name -> cache key of the chain that produced it (see
    #: :mod:`repro.pipeline.cache`).  An artifact without an entry is
    #: unkeyed: the pipeline drops a stage's output keys before it runs,
    #: and keys them again only when the stage was looked up in a cache.
    artifact_keys: dict[str, str] = field(default_factory=dict)
    #: Called with each stage's :class:`PassTiming` as the stage finishes.
    on_pass: Callable[[PassTiming], None] | None = None

    # -- randomness ---------------------------------------------------------

    def rng(self, *labels: object) -> np.random.Generator:
        """Deterministic child generator for ``labels`` and this circuit.

        The derivation is ``stream.child(*labels, circuit.name)``, so a
        compilation is bit-identical for the same seed and circuit name,
        whatever else the stream has produced.
        """
        return self.stream.child(*labels, self.circuit.name).generator

    # -- artifacts ----------------------------------------------------------

    def put(self, name: str, value: Any) -> None:
        self.artifacts[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        if name not in self.artifacts:
            return default
        return self.require(name)

    def require(self, name: str, load: bool = True) -> Any:
        """Fetch an artifact a pass depends on, failing loudly if absent.

        ``load=False`` returns a deferred artifact as it is bound, for a
        caller that hands it on rather than reading it.
        """
        try:
            value = self.artifacts[name]
        except KeyError:
            raise CompilationError(
                f"artifact {name!r} is not available; did an earlier pass "
                f"run? (present: {sorted(self.artifacts)})"
            ) from None
        if load and type(value) is DeferredArtifact:
            value = self.artifacts[name] = value.load()
        return value

    # -- timings ------------------------------------------------------------

    def seconds_for(self, name: str) -> float:
        """Total seconds recorded for passes named ``name`` (0.0 if none)."""
        return sum(t.seconds for t in self.timings if t.name == name)

    @property
    def timings_by_pass(self) -> dict[str, float]:
        """Pass name -> accumulated seconds, in execution order."""
        return aggregate_timings(self.timings)
