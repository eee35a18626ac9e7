"""Shared configuration for the benchmark harness.

Each experiment bench runs its table/figure regeneration exactly once under
pytest-benchmark timing (rounds=1): the experiments are Monte-Carlo sweeps,
so statistical repetition happens *inside* them, not by re-running the
sweep.  Micro-benchmarks (benchmarks/test_micro.py) use normal repetition.

Regenerated tables are printed so ``pytest benchmarks/ --benchmark-only -s``
doubles as the paper-reproduction report; EXPERIMENTS.md records a checked-in
copy.

The timing floors measure the product against the test-only reference
implementations in ``tests/oracles.py``, so ``tests/`` goes on ``sys.path``
here: ``pytest benchmarks`` alone does not put it there.
"""

import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent.resolve()
_TESTS_DIR = str(_BENCH_DIR.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


def pytest_collection_modifyitems(items):
    """Auto-mark everything under benchmarks/ as ``bench``.

    The marker (registered in pytest.ini) lets CI split the blocking unit
    job from the non-blocking bench job without duplicating path lists.
    """
    for item in items:
        try:
            path = Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - exotic collectors
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
