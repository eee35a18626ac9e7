"""Timing floors for the online hot path.

Times ``components()`` against the union-find oracle and ``renormalize``
against the scalar deque-BFS oracle carver behind the product's strip
check (both in ``tests/oracles.py``) on size-48 RSLs (the 4-qubit @ p =
0.75 configuration of Table 1), and asserts the vectorized flood fill and
the wavefront path search each hold their >= 3x advantage over those
scalar references.
"""

from __future__ import annotations

import time

import numpy as np
from oracles import ScalarCarverStripCheck, components_dsu, renormalize_scalar

from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize

RSL_SIZE = 48
TARGET = 4  # node side 12, the paper's p = 0.90 multiplier
REPEATS = 25


PASSES = 3  # best-of-N passes damps scheduler noise on loaded machines


def _mean_ms(fn, inputs) -> float:
    """Mean milliseconds per call of ``fn``, best of ``PASSES``."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for item in inputs:
            fn(item)
        best = min(best, time.perf_counter() - start)
    return best / len(inputs) * 1e3


def test_components_speedup_and_snapshot():
    rng = np.random.default_rng(0)
    lattices = [sample_lattice(RSL_SIZE, 0.75, rng) for _ in range(REPEATS)]

    # Warm-up excludes one-time numpy dispatch costs from the measurement.
    lattices[0].components()
    components_dsu(lattices[0])

    vec_ms = _mean_ms(lambda lat: lat.components(), lattices)
    dsu_ms = _mean_ms(components_dsu, lattices)
    renorm_ms = _mean_ms(lambda lat: renormalize(lat.copy(), TARGET), lattices)
    scalar_ms = _mean_ms(
        lambda lat: renormalize_scalar(lat.copy(), TARGET, carver=ScalarCarverStripCheck),
        lattices,
    )

    speedup = vec_ms and dsu_ms / vec_ms
    pathfind_speedup = renorm_ms and scalar_ms / renorm_ms

    assert speedup >= 3.0, (
        f"vectorized components() is only {speedup:.1f}x the DSU version "
        f"({vec_ms:.3f} ms vs {dsu_ms:.3f} ms at size {RSL_SIZE})"
    )
    assert pathfind_speedup >= 3.0, (
        f"the wavefront path search is only {pathfind_speedup:.1f}x the "
        f"scalar BFS ({renorm_ms:.3f} ms vs {scalar_ms:.3f} ms per "
        f"renormalize at size {RSL_SIZE})"
    )
