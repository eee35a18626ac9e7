"""``benchmarks/perfbench_smoke.py`` rejects every bad perfbench ending.

CI's blocking perfbench smoke is only as strict as this checker, so each
assertion it makes is exercised here on synthetic last lines.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_smoke", ROOT / "benchmarks" / "perfbench_smoke.py"
)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)

PER_LAYER = ["online.renormalize.s", "cache.hits"]


def capture(trace=1, absent=smoke.KNOWN_ABSENT, correct=True, metrics=None, raw_result=None):
    provenance = {
        "provenance": {"trace": trace, "absent_wrap_targets": absent},
        "failed_frac": 0.0,
    }
    result = {
        "correct": correct,
        "attempted": 3,
        "failed": 0 if correct else 1,
        "metrics": {"online.renormalize.s": 0.5, "cache.hits": 4} if metrics is None else metrics,
    }
    return "\n".join(
        ["some progress line", json.dumps(provenance), raw_result or json.dumps(result)]
    )


def test_good_run_passes_traced_and_untraced():
    assert smoke.check(capture(), per_layer=PER_LAYER) == []
    untraced = capture(trace=0, absent=[], metrics={})
    assert smoke.check(untraced, per_layer=PER_LAYER) == []


@pytest.mark.parametrize(
    "text, fragment",
    [
        (capture(correct=False), "correct is False"),
        (capture(raw_result='{"correct": true, "metrics": {"x": NaN}}'), "non-finite"),
        (capture(raw_result='{"correct": true, "metrics": {"x": Infinity}}'), "non-finite"),
        (capture(absent=[]), "absent_wrap_targets"),
        (capture(absent=smoke.KNOWN_ABSENT + ["repro.pipeline.Pipeline.run"]), "absent_wrap_targets"),
        (capture(metrics={"cache.hits": 4}), "online.renormalize.s"),
        ("only one line", "fewer than two lines"),
    ],
    ids=["incorrect", "nan", "infinity", "none-absent", "extra-absent", "missing-metric", "short"],
)
def test_bad_traced_run_fails(text, fragment):
    failures = smoke.check(text, per_layer=PER_LAYER)
    assert failures and fragment in " ".join(failures)


def test_main_checks_the_declared_per_layer_metrics(tmp_path, capsys):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    good = tmp_path / "good.txt"
    good.write_text(capture(metrics={name: 0 for name in declared}))
    bad = tmp_path / "bad.txt"
    bad.write_text(capture(metrics={name: 0 for name in declared[1:]}))
    assert smoke.main([str(good)]) == 0
    assert smoke.main([str(good), str(bad)]) == 1
    assert declared[0] in capsys.readouterr().err
