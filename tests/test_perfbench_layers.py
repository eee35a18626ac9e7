"""perfbench's per-layer timers still find the bindings they wrap.

A traced benchmark run (``perfbench/run.py --trace 1``) installs
``perfbench/layers.py``, which rebinds program functions by name and
calls them with fixed arities: ``Pipeline.run(self, ctx)``,
``ArtifactCache.fetch(self, key)``, ``ArtifactCache.store(self, key,
payload)``, ``OnlineReshaper.run(self, demands)`` and the module-level
kernels.  A refactor that renames or re-signs one of them fails here, in
the blocking test job, and not only in the non-blocking bench job.  The
timers patch classes for the life of the process, so the compile runs in
a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Installs the timers, then compiles one small circuit cold and warm
#: through a cached pipeline and prints the layer snapshot.
SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
from layers import Layers

layers = Layers()
layers.install()
from repro.circuits import make_benchmark
from repro.pipeline import MemoryCache, Pipeline, PipelineSettings

settings = PipelineSettings(
    fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
)
pipeline = Pipeline(settings, cache=MemoryCache())
circuit = make_benchmark("qaoa", 4, seed=0)
for _ in range(2):
    pipeline.compile(circuit, seed=0)
print(json.dumps(layers.snapshot()))
"""


def test_traced_compile_reaches_every_accounting_wrapper():
    env = {
        **os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
    }
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    snapshot = json.loads(done.stdout.splitlines()[-1])
    assert snapshot["absent"] == ["repro.online.renormalize.frontier_adjacency"]
    calls, counts = snapshot["calls"], snapshot["counts"]
    passes = {name: n for name, n in calls.items() if name.startswith("pass.")}
    assert passes == {
        "pass.translate": 2, "pass.rewrite": 2, "pass.offline-map": 2,
        "pass.online-reshape": 2,
    }
    # Cold: four fetches miss and four stores; warm: four fetches hit.
    assert (calls["cache.fetch"], calls["cache.store"]) == (8, 4)
    assert (counts["cache.hits"], counts["cache.misses"]) == (4, 4)
    assert counts["online.rsl_consumed"] > 0
