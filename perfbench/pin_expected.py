"""Pin the seed-0 expected outputs checked by serve-mixed.

Usage: PYTHONPATH=src python3 perfbench/pin_expected.py

The file is computed through the library (``Pipeline.compile``), not
through the server, so serve-mixed checks the server against an independent
path.  Re-pin only after an intentional change to the program's results.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import serve_mixed  # noqa: E402


def write(path: Path, about: str, results: dict) -> None:
    path.write_text(json.dumps({"about": about, "results": results}, indent=2, sort_keys=True) + "\n")


def main() -> None:
    from repro import Pipeline, PipelineSettings
    from repro.circuits.benchmarks import make_benchmark

    served = {}
    for request in serve_mixed.make_plan(0)["cold"]:
        circuit = make_benchmark(request["benchmark"], request["qubits"], seed=request["seed"])
        settings = PipelineSettings(fusion_success_rate=request["rate"])
        result = Pipeline(settings, seed=request["seed"]).compile(circuit)
        served[serve_mixed.request_id(request)] = {
            "benchmark": circuit.name,
            "num_qubits": result.num_qubits,
            "rsl_count": result.rsl_count,
            "fusion_count": result.fusion_count,
            "logical_layers": result.logical_layers,
            "pl_ratio": result.pl_ratio,
        }
    write(
        serve_mixed.EXPECTED,
        "seed-0 plan: deterministic result fields of each cold compile request, keyed family/qubits/rate/seed",
        served,
    )


if __name__ == "__main__":
    main()
