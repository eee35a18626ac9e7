"""Layer replay: every call one compiler layer makes in a bench-scale run, timed in ``ref`` and hashed.

Run:  PYTHONPATH=src python benchmarks/replay.py --layer {translate,map,renorm,online}
                                                 [--repeats N] [--write]

Records each call the chosen layer makes while every registered experiment
runs at ``scale="bench"``, seed 0, on the serial runner, then replays the
recorded calls ``--repeats`` times.  Each replay is timed in reference
units (``ref``): its wall seconds divided by the time of perfbench's fixed
reference loop sampled just before and after it
(``perfbench/common.py::HostClock``).  On a shared host the same replay's
wall time swings by more than the changes worth measuring, and the loop
swings with it, so the median and interquartile range are printed in
``ref`` (wall seconds alongside), with the garbage collections per
generation of one replay.

It also prints a sha256 over the layer's outputs and exits 1 if that
differs from the digest committed next to this script
(``<layer>_replay_digest.txt``); ``--write`` re-pins it after an intended
change of the outputs.  The layers and what their digests cover:

* ``translate``: the ``translate_circuit`` calls (the 108 of the pipeline's
  translate pass and of fig15); each pattern's name, nodes (wire, angle,
  flow successor), inputs, outputs and every node's adjacency in iteration
  order (``tests/oracles.py::pattern_dump``).
* ``map``: the ``OfflineMapper.map_pattern`` calls; each mapping in the
  canonical form ``tests/test_offline.py::mapping_dump`` pins (a call that
  raises ``MappingError`` hashes its error type and message).  A replay
  drops each mapping as soon as it is made, as a compile does.
* ``renorm``: the ``renormalize`` calls; each result's success flag,
  lattice size, visited-site count, coordinate paths and node sites.
  Fig. 13(a) stops renormalizing a node size's trials once its success rate
  is decided, so its calls depend on the code under test; the replay
  records the exhaustive definition instead (the test oracle
  ``suitable_node_size_exhaustive``), so the call set stays fixed.
* ``online``: the ``OnlineReshaper.run`` calls (config, virtual size, RSL
  cap, demands and a copy of the fusion device as it stood), covering the
  whole per-RSL loop; each call's ``ReshapeMetrics`` (or the type and
  message of the ``ReproError`` it raised), the device's ``FusionTally``
  with ``by_kind`` and the device RNG's final state.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import hashlib
import importlib
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from repro.errors import MappingError, ReproError
from repro.experiments import experiment_names, get_experiment, make_runner
from repro.offline.mapper import OfflineMapper
from repro.online.timelike import OnlineReshaper

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))
from common import HostClock  # noqa: E402
from oracles import pattern_dump, suitable_node_size_exhaustive  # noqa: E402
from test_offline import mapping_dump  # noqa: E402


def run_experiments(patches: dict[tuple[object, str], object]) -> None:
    """Run every experiment at bench scale, seed 0, serially, with each
    ``(owner, attribute)`` of ``patches`` replaced for the duration."""
    originals = {target: getattr(*target) for target in patches}
    for (owner, name), replacement in patches.items():
        setattr(owner, name, replacement)
    try:
        for name in experiment_names():
            get_experiment(name).run("bench", seed=0, runner=make_runner("serial"))
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)


class TranslateLayer:
    """``translate_circuit``: circuit -> measurement pattern."""

    repeats = 20

    def __init__(self) -> None:
        self.module = importlib.import_module("repro.mbqc.translate")
        # fig15 binds the function at import; the passes import it per call.
        self.fig15 = importlib.import_module("repro.experiments.fig15")

    def record(self) -> list:
        calls: list = []
        original = self.module.translate_circuit

        def recording(circuit):
            calls.append(circuit.copy())
            return original(circuit)

        run_experiments({(self.module, "translate_circuit"): recording,
                         (self.fig15, "translate_circuit"): recording})
        return calls

    def prepare(self, calls: list) -> list:
        return calls

    def run(self, calls: list) -> None:
        translate = self.module.translate_circuit
        for circuit in calls:
            translate(circuit)

    def digest(self, calls: list) -> str:
        hasher = hashlib.sha256()
        for circuit in calls:
            pattern = self.module.translate_circuit(circuit)
            hasher.update(json.dumps(pattern_dump(pattern)).encode())
        return hasher.hexdigest()


class MapLayer:
    """``OfflineMapper.map_pattern``: pattern -> FlexLattice mapping."""

    repeats = 5

    def record(self) -> list:
        calls: list = []
        original = OfflineMapper.map_pattern

        def recording(mapper, pattern):
            # The constructor arguments are exactly the mapper's attributes.
            calls.append((dict(vars(mapper)), pattern))
            return original(mapper, pattern)

        run_experiments({(OfflineMapper, "map_pattern"): recording})
        return calls

    def prepare(self, calls: list) -> list:
        return calls

    @staticmethod
    def map_once(settings: dict, pattern):
        try:
            return OfflineMapper(**settings).map_pattern(pattern)
        except MappingError as error:
            return error

    def run(self, calls: list) -> None:
        for settings, pattern in calls:
            self.map_once(settings, pattern)

    def digest(self, calls: list) -> str:
        hasher = hashlib.sha256()
        for settings, pattern in calls:
            outcome = self.map_once(settings, pattern)

            def run(outcome=outcome):
                if isinstance(outcome, MappingError):
                    raise outcome
                return outcome

            hasher.update(json.dumps(mapping_dump(run), sort_keys=True).encode())
        return hasher.hexdigest()


class RenormLayer:
    """``renormalize``: percolated lattice -> carved logical lattice."""

    repeats = 5
    #: Every module binding of ``renormalize`` the experiments and the
    #: exhaustive Fig. 13(a) oracle reach.
    BINDINGS = (
        "repro.online.renormalize",
        "repro.online.timelike",
        "repro.online.modular",
        "repro.experiments.fig13",
        "repro.experiments.fig14",
        "repro.experiments.fig16",
    )

    def record(self) -> list:
        calls: list = []
        fig13 = importlib.import_module("repro.experiments.fig13")

        def recording(original):
            def wrapper(lattice, target_size, work_budget=None):
                calls.append((lattice.copy(), target_size, work_budget))
                return original(lattice, target_size, work_budget)

            return wrapper

        patches: dict = {}
        for name in self.BINDINGS:
            module = importlib.import_module(name)
            patches[(module, "renormalize")] = recording(module.renormalize)
        patches[(fig13, "suitable_node_size")] = partial(
            suitable_node_size_exhaustive, threshold=fig13.SUITABLE_SUCCESS
        )
        run_experiments(patches)
        return calls

    def prepare(self, calls: list) -> list:
        return calls

    def run(self, calls: list) -> list:
        from repro.online.renormalize import renormalize

        return [renormalize(lattice, target, budget) for lattice, target, budget in calls]

    def digest(self, calls: list) -> str:
        hasher = hashlib.sha256()
        for result in self.run(calls):
            entry = [
                result.success,
                result.lattice_size,
                result.visited_sites,
                result.vertical_paths,
                result.horizontal_paths,
                [[*key, *site] for key, site in result.node_sites.items()],
            ]
            hasher.update(json.dumps(entry).encode())
        return hasher.hexdigest()


class OnlineLayer:
    """``OnlineReshaper.run``: layer demands -> RSLs consumed."""

    repeats = 3

    def record(self) -> list:
        calls: list = []
        original = OnlineReshaper.run

        def recording(reshaper, demands):
            calls.append(
                (
                    reshaper.config,
                    reshaper.virtual_size,
                    reshaper.max_rsl,
                    copy.deepcopy(reshaper.device),
                    list(demands),
                )
            )
            return original(reshaper, demands)

        run_experiments({(OnlineReshaper, "run"): recording})
        return calls

    def prepare(self, calls: list) -> list:
        """A fresh reshaper per recorded call, its device a copy of the
        recorded one (built before the clock starts)."""
        built = []
        for config, virtual_size, max_rsl, device, demands in calls:
            reshaper = OnlineReshaper(config, virtual_size, max_rsl=max_rsl)
            reshaper.device = copy.deepcopy(device)
            built.append((reshaper, demands))
        return built

    @staticmethod
    def run_once(reshaper: OnlineReshaper, demands: list):
        try:
            return reshaper.run(demands)
        except ReproError as error:
            return error

    def run(self, built: list) -> list:
        return [self.run_once(reshaper, demands) for reshaper, demands in built]

    def digest(self, calls: list) -> str:
        hasher = hashlib.sha256()
        built = self.prepare(calls)
        for outcome, (reshaper, _demands) in zip(self.run(built), built):
            if isinstance(outcome, ReproError):
                entry = [type(outcome).__name__, str(outcome)]
            else:
                entry = dataclasses.asdict(outcome)
            device = reshaper.device
            tally = device.tally
            hasher.update(
                json.dumps(
                    [
                        entry,
                        [tally.attempted, tally.succeeded, sorted(tally.by_kind.items())],
                        device.rng.bit_generator.state,
                    ]
                ).encode()
            )
        return hasher.hexdigest()


LAYERS = {
    "translate": TranslateLayer,
    "map": MapLayer,
    "renorm": RenormLayer,
    "online": OnlineLayer,
}


def timed_replay(layer, calls: list, clock: HostClock) -> tuple[float, float, list[int]]:
    """One replay's wall seconds, ``ref`` units and garbage collections per
    generation; the reference loop is sampled right before and after."""
    prepared = layer.prepare(calls)
    clock.sample(3)
    before = [generation["collections"] for generation in gc.get_stats()]
    start = time.perf_counter()
    layer.run(prepared)
    end = time.perf_counter()
    after = [generation["collections"] for generation in gc.get_stats()]
    clock.sample(3)
    return end - start, clock.units(start, end), [b - a for a, b in zip(before, after)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", required=True, choices=sorted(LAYERS))
    parser.add_argument("--repeats", type=int, help="replays to time (default per layer)")
    parser.add_argument("--write", action="store_true", help="re-pin the digest")
    args = parser.parse_args()
    layer = LAYERS[args.layer]()
    digest_path = Path(__file__).with_name(f"{args.layer}_replay_digest.txt")

    start = time.perf_counter()
    calls = layer.record()
    print(f"recorded {len(calls)} {args.layer} calls ({time.perf_counter() - start:.1f} s)")
    clock = HostClock()
    clock.sample()  # builds the reference inputs
    runs = [timed_replay(layer, calls, clock) for _ in range(max(1, args.repeats or layer.repeats))]
    seconds = [wall for wall, _ref, _gc in runs]
    low, mid, high = quartiles([ref for _wall, ref, _gc in runs])
    print(
        f"replay: median {mid:.1f} ref (IQR {high - low:.1f}; q1 {low:.1f}, q3 {high:.1f}) "
        f"over {len(runs)} repeats; wall median {statistics.median(seconds):.3f} s "
        f"(min {min(seconds):.3f}, max {max(seconds):.3f})"
    )
    per_generation = zip(*(collections for _wall, _ref, collections in runs))
    print(
        "gc collections per replay (median): "
        + ", ".join(
            f"gen-{generation} {statistics.median(counts):g}"
            for generation, counts in enumerate(per_generation)
        )
    )
    actual = layer.digest(calls)
    print(f"digest: {actual}")
    if args.write:
        digest_path.write_text(actual + "\n")
        return 0
    expected = digest_path.read_text().strip()
    if actual != expected:
        print(f"digest differs from {digest_path.name}: {expected}")
        return 1
    print(f"digest matches {digest_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
