"""Warm persistent process pools: spin up once, reuse for every sweep.

Without this registry the process runner *lost* to serial at bench scale:
every ``iter_jobs`` call paid executor startup — worker spawn, module
imports in each child — before the first job ran, and tore it all down
afterwards.  For sweeps whose serial wall clock is a fraction of a second,
the fixed cost dwarfed the parallel win.

The registry here makes pools **process-lifetime resources**: one
executor per worker count, created on first use and reused by every
runner and every sweep until :func:`shutdown_pools` (installed as an
``atexit`` hook) retires them.  Workers pre-import the heavy compile
modules at spawn (:func:`_warm_worker`), so even a spawn-start-method
child answers its first job warm.

The companion policy is the **dispatch quantum**: :func:`chunk_size_for`
sizes job chunks to amortize IPC — about ``jobs / (4 * workers)`` per
round trip, so each worker sees ~4 submissions (enough slack for the
scheduler to balance uneven jobs) instead of one pickle round trip per
job.

Pools are shared infrastructure, so error handling is explicit: a caller
that poisons a pool (a failed job cancels the rest of its sweep) retires
it through :func:`discard_pool` — the pool is shut down with
``cancel_futures=True`` and dropped from the registry, and the next
acquisition builds a fresh one.  Determinism is unaffected by any of
this: jobs are self-seeded, so *which* pool (or how warm it is) can only
move wall-clock time around.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Iterator, Sequence, TypeVar

from repro.errors import ReproError

T = TypeVar("T")

_pools: dict[int, Executor] = {}
_lock = threading.Lock()


def _warm_worker() -> None:  # pragma: no cover - runs inside pool workers
    """Pre-import the heavy compile modules in a fresh process-pool worker.

    Runs once per worker at spawn, so the first real job never pays
    import time.  Free under the fork start method (children inherit the
    parent's modules); the point is spawn-method children and keeping the
    warm-pool contract start-method-independent.
    """
    import repro.circuits.benchmarks  # noqa: F401
    import repro.online.renormalize  # noqa: F401
    import repro.pipeline  # noqa: F401


def resolve_workers(max_workers: int | None) -> int:
    """The concrete worker count ``max_workers`` means (None = all cores)."""
    if max_workers is None:
        return os.cpu_count() or 1
    if max_workers < 1:
        raise ReproError(f"worker count must be >= 1, got {max_workers}")
    return max_workers


def get_pool(max_workers: int | None = None) -> Executor:
    """The warm process pool for ``max_workers`` workers, created on first use.

    Never wrap the returned pool in a ``with`` block and never call
    ``shutdown`` on it directly — it is shared by every caller in the
    process.  To retire a pool (after poisoning it with a failed sweep),
    use :func:`discard_pool`; to retire everything, :func:`shutdown_pools`.
    """
    workers = resolve_workers(max_workers)
    with _lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers, initializer=_warm_worker)
            _pools[workers] = pool
        return pool


def discard_pool(pool: Executor) -> None:
    """Retire one pool: drop it from the registry, cancel queued work.

    The error-path half of the warm-pool contract: a sweep that failed
    mid-flight cancels everything still queued (``cancel_futures=True``,
    so the failure surfaces immediately instead of after the rest of the
    sweep runs to completion) and stops sharing the executor — a process
    pool with a dead worker, or one still chewing on a poisoned sweep's
    stragglers, must not serve the next caller.  Safe to call with a pool
    the registry no longer holds (two failing sweeps can race to retire
    the same pool).
    """
    with _lock:
        for key, registered in list(_pools.items()):
            if registered is pool:
                del _pools[key]
                break
    pool.shutdown(wait=True, cancel_futures=True)


def shutdown_pools() -> int:
    """Retire every warm pool; idempotent.  Returns how many were closed.

    Registered as an ``atexit`` hook so long-lived embedders never need
    to think about pool lifetime; call it explicitly to reclaim worker
    processes between phases of a long session (the next sweep simply
    re-warms).
    """
    with _lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)
    return len(pools)


atexit.register(shutdown_pools)


def chunk_size_for(num_jobs: int, workers: int) -> int:
    """The dispatch quantum: jobs per pool round trip.

    Targets ~4 chunks per worker — big enough to amortize submission and
    pickle overhead, small enough that uneven job costs still balance
    across the pool — and never goes below 1.
    """
    return max(1, num_jobs // (4 * workers))


def chunked(items: Sequence[T], size: int) -> Iterator[list[T]]:
    """Contiguous slices of ``items``, ``size`` apiece (last may be short).

    Contiguity is deliberate: chunk boundaries then respect canonical
    (input) order, so a completed chunk is a contiguous run of records
    and the reorder buffer drains it in one sweep.
    """
    for start in range(0, len(items), size):
        yield list(items[start : start + size])
