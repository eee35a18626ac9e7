"""Content-addressed artifact cache for the compiler pipeline.

The paper splits compilation into a deterministic offline pass, run once
per program, and an online pass that runs per shot.  This module keeps the
offline half from being recomputed: ``Pipeline.run`` looks up every
cacheable pass of a pipeline that holds a cache before running it, and
memoizes its artifacts under a **chained key**, a hash of exactly what
produced them:

* the pass name;
* the pass's declared ``reads`` (:class:`~repro.pipeline.passes.
  CompilerPass`): the circuit fingerprint for ``translate``; the virtual
  size and the mapper settings for ``offline-map``; the hardware config,
  virtual size and RSL cap for ``online-reshape``; and so on;
* the key of every artifact the pass ``requires`` — the key of the pass
  that produced it, so a key captures the whole chain that led to the
  pass's inputs (a Merkle chain over the pass sequence);
* for stochastic stages (``online-reshape``, ``baseline``), the derived
  child-stream seed the stage would draw from — the exact
  ``RandomStream.child(*labels, circuit.name)`` derivation, so two runs
  that would sample identical streams share one entry while different
  seeds never collide.

A pass therefore shares entries with every compilation that fed it the
same inputs, whatever else differs: the offline prefix is shared across
seeds, fusion rates and RSL sizes, while a pipeline with an extra
pattern-changing pass keys everything after it apart.  An artifact written
by a pass that is not cacheable (a custom in-place pass) is **unkeyed**,
and every cacheable pass downstream of it runs uncached.

Two backends exist behind one interface: :class:`MemoryCache` (per-process
dict; serves the serial runner and the serve layer) and :class:`DiskCache`
(a directory of pickle files with atomic writes; shareable across process
pools and across runs).  An entry pickles each artifact on its own inside
the payload.  A hit binds every artifact **lazily**, as a
:class:`~repro.pipeline.context.DeferredArtifact` that is unpickled — a
fresh copy, never aliased between compilations — on first read, so a warm
compile that never reads the offline IR never loads it.  An entry or an
artifact that fails to load is dropped, counted as a miss and recomputed.
A ``max_bytes`` budget with LRU eviction (recency = entry file mtime,
refreshed on every hit) keeps long-running disk stores bounded.

Hit/miss counts live in one place: each compilation's
``PassContext.metrics`` (``cache_hits``/``cache_misses``), which flows into
``CompilationResult.metrics`` and from there into
``ExperimentRecord.metrics``, surviving process-pool boundaries.  Every
report sums them with :func:`cache_summary`; the cache object counts
nothing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections.abc import Mapping
from functools import partial
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import CompilationError
from repro.pipeline.context import DeferredArtifact, PassContext
from repro.pipeline.passes import CompilerPass

#: Bump when the key derivation or payload schema changes: stale entries
#: from older layouts must read as misses, never as wrong hits.  v2: the
#: option vocabulary grew the ``rewrite`` knob (pattern-rewrite pass on or
#: off), which keys rewritten and unrewritten chains apart.  v3: the
#: path-search selector left the option vocabulary (one renormalizer, its
#: oracles test-only), so every key's option list changed.  v4: chained
#: keys over each pass's declared reads, and one pickle per artifact inside
#: the payload.  v5: the FlexLattice IR inside a mapping is stored as
#: columns; a v4 mapping would unpickle without them.
CACHE_SCHEMA_VERSION = 5


def circuit_fingerprint(circuit) -> str:
    """Stable content hash of a circuit (gates, qubit count, name).

    The name participates because downstream artifacts may embed it (and
    RNG streams derive from it); two same-content circuits with different
    names therefore address different entries — a lost sharing opportunity,
    never a correctness hazard.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{circuit.num_qubits}|{circuit.name}".encode())
    for gate in circuit.gates:
        digest.update(repr((gate.name, gate.qubits, gate.params)).encode())
    return digest.hexdigest()


#: Declared reads that name a context field; every other read names a
#: :class:`~repro.pipeline.settings.PipelineSettings` field.
_CONTEXT_READS = {
    "circuit": lambda ctx: circuit_fingerprint(ctx.circuit),
    "config": lambda ctx: repr(ctx.config),
    "virtual_size": lambda ctx: repr(ctx.virtual_size),
}


def _read_value(ctx: PassContext, read: str) -> str:
    field = _CONTEXT_READS.get(read)
    return field(ctx) if field is not None else repr(getattr(ctx.settings, read))


class ArtifactBlobs(Mapping):
    """A fetched payload's artifacts: name -> pickled blob.

    Indexing unpickles a fresh copy; :attr:`blobs` hands out the raw
    bytes, which is how :meth:`ArtifactCache.replay` binds a hit without
    loading it.
    """

    def __init__(self, blobs: dict[str, bytes]) -> None:
        self.blobs = blobs

    def __getitem__(self, name: str) -> Any:
        return pickle.loads(self.blobs[name])

    def __iter__(self):
        return iter(self.blobs)

    def __len__(self) -> int:
        return len(self.blobs)


def _pack(payload: dict[str, Any]) -> bytes:
    """An entry's bytes: the payload with each artifact pickled on its own."""
    artifacts = {
        name: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        for name, value in payload["artifacts"].items()
    }
    return pickle.dumps(
        {**payload, "artifacts": artifacts}, protocol=pickle.HIGHEST_PROTOCOL
    )


def _unpack(blob: bytes) -> dict[str, Any]:
    """The payload of an entry's bytes, artifacts still pickled.

    Raises on anything that is not an entry :func:`_pack` wrote.
    """
    entry = pickle.loads(blob)
    if not isinstance(entry, dict):
        raise ValueError("entry payload is not a dict")
    artifacts = entry.get("artifacts")
    if not isinstance(artifacts, dict) or not all(
        isinstance(value, bytes) for value in artifacts.values()
    ):
        raise ValueError("entry artifacts are not pickled blobs")
    entry["artifacts"] = ArtifactBlobs(artifacts)
    return entry


class ArtifactCache:
    """Backend-agnostic half of the cache: keys, (de)serialization, and the
    hit and miss steps of ``Pipeline.run`` (:meth:`replay`,
    :meth:`run_and_store`).

    Subclasses implement :meth:`_read` / :meth:`_write` / :meth:`_discard`
    over raw bytes, guarded by :attr:`_lock` where they share state.
    """

    name = "cache"

    def __init__(self) -> None:
        self._lock = threading.Lock()

    # -- key derivation -----------------------------------------------------

    def key_for(self, stage: CompilerPass, ctx: PassContext) -> str | None:
        """The chained key of ``stage``'s output for ``ctx``.

        Hashes the pass name, the keys of the artifacts it requires and
        the values of its declared reads.  ``None`` when a required
        artifact is unkeyed: its lineage is unknown, so the pass's output
        has no address.
        """
        parts = [f"schema={CACHE_SCHEMA_VERSION}", f"pass={stage.name}"]
        for name in stage.requires:
            lineage = ctx.artifact_keys.get(name)
            if lineage is None:
                return None
            parts.append(f"<{name}={lineage}")
        parts.extend(f"{read}={_read_value(ctx, read)}" for read in stage.reads)
        if stage.rng_labels:
            # The exact child-seed the stage's generator would start from:
            # stochastic stages are deterministic *given* this value.
            child = ctx.stream.child(*stage.rng_labels, ctx.circuit.name)
            parts.append(f"stream={child.seed}")
        digest = hashlib.blake2b("\n".join(parts).encode(), digest_size=20)
        return digest.hexdigest()

    # -- payloads -----------------------------------------------------------

    def fetch(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None.

        The payload's ``artifacts`` is an :class:`ArtifactBlobs`: each
        artifact unpickles, as a fresh copy, only when read.  An entry
        that does not load is dropped and reads as a miss.
        """
        blob = self._read(key)
        if blob is None:
            return None
        try:
            return _unpack(blob)
        except Exception:
            self._discard(key)
            obs.event("cache_dropped", key=key)
            return None

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` (last write wins; same content)."""
        self._write(key, _pack(payload))

    def invalidate(self, key: str) -> None:
        """Drop ``key``'s entry after one of its artifacts failed to load."""
        self._discard(key)
        obs.event("cache_dropped", key=key)

    # -- one stage of Pipeline.run ------------------------------------------

    def replay(
        self, stage: CompilerPass, ctx: PassContext, key: str, payload: dict[str, Any]
    ) -> None:
        """Stand in for ``stage`` with a hit: metrics now, artifacts deferred.

        The payload carries the stage's metrics delta, so the hit leaves
        ``ctx.metrics`` as a run would.  Each artifact is bound as a
        :class:`~repro.pipeline.context.DeferredArtifact` that recomputes
        it with ``stage`` if its blob fails to load.
        """
        _count(ctx, "cache_hits")
        # Event only, never a registry counter: ``cache.*`` counters
        # derive exclusively from per-compilation metrics, so both runner
        # backends reconcile to one source of truth.
        obs.event("cache_hit", stage=stage.name, circuit=ctx.circuit.name)
        ctx.metrics.update(payload["metrics"])
        inputs = {name: ctx.artifacts[name] for name in stage.requires}
        recover = _Recovery(self, stage, ctx, key, inputs)
        # Recovery recomputes from the inputs as bound now.  A deferred
        # input reloads a fresh copy; an already-loaded one may still be
        # mutated by a later in-place pass, so then load the hit now.
        lazy = all(type(value) is DeferredArtifact for value in inputs.values())
        for name, blob in payload["artifacts"].blobs.items():
            artifact = DeferredArtifact(blob, partial(recover, name))
            ctx.put(name, artifact if lazy else artifact.load())

    def run_and_store(self, stage: CompilerPass, ctx: PassContext, key: str) -> None:
        """Run ``stage`` on a miss and store its artifacts and metrics delta."""
        obs.event("cache_miss", stage=stage.name, circuit=ctx.circuit.name)
        before = dict(ctx.metrics)
        stage.run(ctx)
        delta = {
            name: value
            for name, value in ctx.metrics.items()
            if name not in before or before[name] != value
        }
        artifacts = {name: ctx.artifacts[name] for name in stage.provides}
        self.store(key, {"artifacts": artifacts, "metrics": delta})
        _count(ctx, "cache_misses")

    # -- backend hooks ------------------------------------------------------

    def _read(self, key: str) -> bytes | None:
        raise NotImplementedError

    def _write(self, key: str, blob: bytes) -> None:
        raise NotImplementedError

    def _discard(self, key: str) -> None:
        raise NotImplementedError

    # -- pickling (process pools) -------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]  # locks do not pickle; workers get their own
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class MemoryCache(ArtifactCache):
    """In-process backend: a dict of pickled payloads.

    Shared by reference within one process (the serial runner, the serve
    layer's worker threads); a process pool pickles it *by value*, so
    workers see a snapshot and new entries do not flow back — use
    :class:`DiskCache` to share across processes.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._store: dict[str, bytes] = {}

    def __len__(self) -> int:
        return len(self._store)

    def _read(self, key: str) -> bytes | None:
        with self._lock:
            return self._store.get(key)

    def _write(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._store[key] = blob

    def _discard(self, key: str) -> None:
        with self._lock:
            self._store.pop(key, None)


class DiskCache(ArtifactCache):
    """On-disk backend: one pickle file per entry, fanned out by key prefix.

    Writes are atomic (temp file + ``os.replace``), so concurrent writers —
    threads or whole process-pool workers — can race on a key and the loser
    simply overwrites identical content.  Pickles by *path*, which is what
    makes one cache shareable across a process pool and across runs.

    ``max_bytes`` bounds the store: after every write the
    least-recently-used entries are unlinked until
    the total payload fits the budget.  Recency is the entry file's mtime,
    refreshed on every hit, so eviction tracks *use*, not insertion — a
    long-running service keeps its working set.  Evicted entries simply
    read as misses and are recomputed; results are unaffected.
    """

    name = "disk"

    def __init__(
        self, directory: str | os.PathLike, max_bytes: int | None = None
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes <= 0:
            raise CompilationError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # The store root as a string: a hit's read joins strings, with no
        # per-fetch ``Path`` objects.
        self._root = os.fspath(self.directory) + os.sep
        self.max_bytes = max_bytes
        self.evictions = 0
        # Running payload estimate so a budgeted store does not pay a full
        # directory scan per write: seeded from disk once, bumped per
        # write, re-synced to truth by every authoritative eviction scan.
        self._approx_bytes = self.total_bytes() if max_bytes is not None else 0

    def _file(self, key: str) -> str:
        """Where ``key``'s pickle lives (two-char fan-out)."""
        return f"{self._root}{key[:2]}{os.sep}{key}.pkl"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def _entries(self):
        """Every entry file currently in the store (depth-2 ``*.pkl`` only)."""
        return self.directory.glob("*/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        """Payload bytes currently on disk (entries only, not directories)."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:  # raced with a concurrent eviction
                continue
        return total

    def _read(self, key: str) -> bytes | None:
        path = self._file(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        try:
            os.utime(path)  # refresh LRU recency: a hit is a use
        except OSError:
            pass  # concurrently evicted after the read — the hit stands
        return blob

    def _discard(self, key: str) -> None:
        path = self._file(key)
        try:
            size = os.stat(path).st_size
            os.unlink(path)
        except OSError:
            return  # already gone: a concurrent eviction or drop
        if self.max_bytes is not None:
            with self._lock:
                self._approx_bytes -= size

    def _write(self, key: str, blob: bytes) -> None:
        if self.max_bytes is not None and len(blob) > self.max_bytes:
            # An artifact bigger than the whole budget can never be kept;
            # storing it would evict every warm entry and then itself.
            # Skip the write — the entry simply reads as a miss forever.
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{key[:8]}-", delete=False
        )
        try:
            handle.write(blob)
            # Durability before visibility: fsync the temp file so the
            # rename can never publish a truncated entry after a crash —
            # os.replace is atomic in the namespace, but without the fsync
            # the *data* may still be dirty page cache when the name flips.
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            if self.max_bytes is not None:
                # Overwrite accounting: os.replace drops the old payload,
                # so only charge the size *delta* — charging the full blob
                # on every overwrite drifts the estimate upward until a
                # store sitting under budget pays a spurious full-directory
                # eviction scan on each write.
                try:
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
            os.replace(handle.name, path)
        except BaseException:
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            with self._lock:
                self._approx_bytes += len(blob) - replaced
                over_budget = self._approx_bytes > self.max_bytes
            if over_budget:
                self._evict_to_budget()

    # -- size budgeting -----------------------------------------------------

    #: Eviction low-water mark: scans drop the store to this fraction of
    #: ``max_bytes``, not to the brim, so a store hovering at its budget
    #: does not pay a full directory re-scan on every subsequent write.
    EVICT_TO_FRACTION = 0.9

    def _evict_to_budget(self) -> int:
        """Unlink least-recently-used entries until ``max_bytes`` is met.

        Safe against concurrent writers/evictors: stat and unlink races are
        tolerated (a vanished file was someone else's eviction).  Returns
        the number of entries this call removed.
        """
        if self.max_bytes is None:
            return 0
        entries = []
        total = 0
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, str(path), stat.st_size, path))
            total += stat.st_size
        entries.sort()  # oldest first; path string breaks mtime ties stably
        removed = 0
        target = (
            self.max_bytes * self.EVICT_TO_FRACTION
            if total > self.max_bytes
            else self.max_bytes
        )
        for _mtime, _tie, size, path in entries:
            if total <= target:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        with self._lock:
            self.evictions += removed
            self._approx_bytes = total  # re-sync the estimate to truth
        if removed:
            obs.count("cache.evictions", removed)
        return removed

    # -- maintenance (long-running services) --------------------------------

    def verify(self) -> int:
        """Drop unreadable or truncated entries; returns how many.

        ``_write`` fsyncs before ``os.replace``, so a crash can no longer
        publish a truncated entry of our own making — what remains for
        verification is the rest of the threat model: a torn write on a
        non-atomic filesystem, bit rot, or a foreign file in the entry
        namespace, any of which would otherwise
        surface later as a dropped entry and a recompute in the middle of
        a request.  Verification at service startup finds them up front:
        each entry and each artifact inside it is loaded once and failures
        are unlinked.  Emits ``cache.verify_dropped`` and a
        ``cache_verified`` event so dashboards see store health.
        """
        dropped = 0
        checked = 0
        for path in self._entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue  # raced with a concurrent eviction
            checked += 1
            try:
                for artifact in _unpack(blob)["artifacts"].blobs.values():
                    pickle.loads(artifact)
            except Exception:
                path.unlink(missing_ok=True)
                dropped += 1
        if self.max_bytes is not None:
            with self._lock:
                self._approx_bytes = self.total_bytes()
        if dropped:
            obs.count("cache.verify_dropped", dropped)
        obs.event("cache_verified", entries=checked, dropped=dropped)
        return dropped


#: CLI ``--cache`` vocabulary -> constructor behavior (see :func:`make_cache`).
CACHE_KINDS = ("off", "memory", "disk")


def make_cache(
    kind: str,
    directory: str | os.PathLike | None = None,
    max_bytes: int | None = None,
) -> ArtifactCache | None:
    """Build a cache from the CLI vocabulary (``off`` -> ``None``).

    ``directory`` and ``max_bytes`` apply to the disk backend only: its
    store and its LRU eviction budget (the memory backend lives and dies
    with the process).
    """
    # Silently dropping either would let "--cache-dir" or
    # "--cache-max-bytes" without a disk cache masquerade as a
    # persistent or bounded store.
    if directory is not None and kind != "disk":
        raise CompilationError("a cache directory applies to the disk cache only")
    if max_bytes is not None and kind != "disk":
        raise CompilationError("max_bytes budgets apply to the disk cache only")
    if kind == "off":
        return None
    if kind == "memory":
        return MemoryCache()
    if kind == "disk":
        if directory is None:
            raise CompilationError("a disk cache needs a directory (--cache-dir)")
        return DiskCache(directory, max_bytes=max_bytes)
    raise CompilationError(
        f"unknown cache kind {kind!r}; use one of: {', '.join(CACHE_KINDS)}"
    )


def _count(ctx: PassContext, counter: str) -> None:
    ctx.metrics[counter] = ctx.metrics.get(counter, 0) + 1


class _Recovery:
    """Recomputes a hit's artifact when its blob fails to load.

    The first failure drops the entry and turns the hit into a miss in the
    compilation's metrics; each call then runs the stage on the inputs
    bound at the hit.  Holds the context's parts, not the context, so a
    deferred artifact does not keep the whole compilation alive.
    """

    def __init__(
        self,
        cache: ArtifactCache,
        stage: CompilerPass,
        ctx: PassContext,
        key: str,
        inputs: dict[str, Any],
    ) -> None:
        self.cache = cache
        self.stage = stage
        self.key = key
        self.inputs = inputs
        self.metrics = ctx.metrics
        self.program = (ctx.circuit, ctx.config, ctx.virtual_size, ctx.stream, ctx.settings)
        self.dropped = False

    def __call__(self, name: str) -> Any:
        if not self.dropped:
            self.dropped = True
            self.cache.invalidate(self.key)
            self.metrics["cache_hits"] -= 1
            self.metrics["cache_misses"] = self.metrics.get("cache_misses", 0) + 1
        scratch = PassContext(*self.program, artifacts=dict(self.inputs))
        self.stage.run(scratch)
        return scratch.artifacts[name]


def cache_summary(hits: int, misses: int) -> dict[str, Any]:
    """The one definition of hit/miss accounting every reporter shares."""
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }
