"""Composable compiler-pass pipeline (see ARCHITECTURE.md).

The Fig. 2 flow — circuit -> MBQC pattern -> offline FlexLattice mapping ->
online reshaping — expressed as first-class passes over a shared
:class:`PassContext`, chained by a :class:`Pipeline`.  Sweeps run through
the experiment runners (:mod:`repro.experiments.runners`), which call
``Pipeline.compile`` once per job.
"""

from repro.pipeline.cache import (
    ArtifactCache,
    DiskCache,
    MemoryCache,
    cache_summary,
    circuit_fingerprint,
    make_cache,
)
from repro.pipeline.context import PassContext, PassTiming
from repro.pipeline.passes import (
    BaselinePass,
    CompilerPass,
    OfflineMapPass,
    OnlineReshapePass,
    TranslatePass,
)
from repro.pipeline.pipeline import (
    PassInsertionError,
    Pipeline,
    baseline_passes,
    check_chain,
    default_passes,
)
from repro.pipeline.result import CompilationResult
from repro.pipeline.settings import PipelineSettings, rsl_size_for, virtual_size_for

__all__ = [
    "ArtifactCache",
    "BaselinePass",
    "CompilationResult",
    "CompilerPass",
    "DiskCache",
    "MemoryCache",
    "OfflineMapPass",
    "OnlineReshapePass",
    "PassContext",
    "PassInsertionError",
    "PassTiming",
    "Pipeline",
    "PipelineSettings",
    "TranslatePass",
    "baseline_passes",
    "cache_summary",
    "check_chain",
    "circuit_fingerprint",
    "default_passes",
    "make_cache",
    "rsl_size_for",
    "virtual_size_for",
]
