"""Golden bench-scale record snapshots: loading and equality assertions.

``benchmarks/golden/<name>.json`` pins the canonical (deterministic) record
portion of each experiment's bench-scale run at seed 0.  The regeneration
benches assert the serial runner reproduces those bytes; the determinism
bench asserts the process runner does too, for varying worker counts, and
that both runners' drained streams do.  Regenerate with ``benchmarks/golden/regenerate.py`` after an
intentional change.
"""

import json
from pathlib import Path

from repro.experiments.api import ExperimentRecord, canonical_json

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_canonical(name: str) -> str:
    """The checked-in records for ``name``, through the one true serializer.

    The snapshot's canonical dicts are rehydrated into records and fed to
    ``canonical_json`` itself, so the equality predicate has a single
    definition — a format change there can never masquerade as a
    determinism regression here.
    """
    payload = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    records = [
        ExperimentRecord(
            experiment=entry["experiment"],
            scale=entry["scale"],
            seed=entry["seed"],
            job=entry["job"],
            fields=entry["fields"],
        )
        for entry in payload["records"]
    ]
    return canonical_json(records)


def assert_matches_golden(name: str, records) -> None:
    assert canonical_json(records) == golden_canonical(name), (
        f"{name}: bench-scale records diverge from benchmarks/golden/{name}.json; "
        "if the change is intentional, regenerate the snapshot"
    )
