"""CLI surface of the pass ecosystem: --passes, exit codes, and the
rewrite pass that is always in the chain."""

import json
import re

import pytest
from oracles import unrewritten_passes

from repro.cli import main
from repro.passes import pass_names
from repro.passes.validators import DIAGNOSTICS_SCHEMA_VERSION
from repro.pipeline import PipelineSettings
from repro.pipeline import pipeline as pipeline_module

COMPILE = ["compile", "--benchmark", "qaoa", "--qubits", "4", "--json"]


class TestRewriteFlag:
    """The rewrite pass has no on/off switch: the flag is gone from every
    command, and the unrewritten chain is a test oracle swapped in for the
    default chain."""

    def test_invalid_rewrite_is_usage_error(self, capsys):
        for argv in (
            ["compile", "--benchmark", "qaoa", "--qubits", "4"],
            ["baseline", "--benchmark", "qaoa", "--qubits", "4"],
            ["experiment", "--name", "table2"],
            ["submit", "--name", "table2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--rewrite", "off"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --rewrite" in capsys.readouterr().err

    def test_help_lists_no_rewrite_flag(self, capsys):
        for name in ("compile", "baseline", "experiment", "submit"):
            with pytest.raises(SystemExit):
                main([name, "--help"])
            help_text = capsys.readouterr().out
            assert "--benchmark" in help_text or "--name" in help_text
            assert "--rewrite" not in help_text, name

    def test_rewrite_off_drops_the_pass(self, capsys, monkeypatch):
        """The default chain always runs the rewrite; only the oracle
        chain, swapped in for ``default_passes``, leaves it out."""
        assert main(COMPILE) == 0
        default = json.loads(capsys.readouterr().out)
        assert "rewrite" in default["pass_timings"]
        monkeypatch.setattr(pipeline_module, "default_passes", unrewritten_passes)
        assert main(COMPILE) == 0
        record = json.loads(capsys.readouterr().out)
        assert "rewrite" not in record["pass_timings"]

    def test_rewrite_off_matches_on_deterministically(self, capsys, monkeypatch):
        """The golden-workload contract at CLI level: the default translate
        path is pre-simplified, so the rewrite finds nothing and the
        unrewritten oracle chain produces the same deterministic outcome."""
        assert main(COMPILE) == 0
        on = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(pipeline_module, "default_passes", unrewritten_passes)
        assert main(COMPILE) == 0
        off = json.loads(capsys.readouterr().out)
        for key in ("rsl_count", "fusion_count", "logical_layers"):
            assert on[key] == off[key]

    def test_experiment_rewrite_off_records_identical(self, capsys, monkeypatch):
        code = main(["experiment", "--name", "fig14", "--json"])
        assert code == 0
        default = json.loads(capsys.readouterr().out)
        # The serial runner builds every pipeline in this process.
        monkeypatch.setattr(pipeline_module, "default_passes", unrewritten_passes)
        code = main(["experiment", "--name", "fig14", "--json"])
        assert code == 0
        off = json.loads(capsys.readouterr().out)
        assert [entry["fields"] for entry in default["records"]] == [
            entry["fields"] for entry in off["records"]
        ]


class TestPassesFlag:
    def test_unknown_pass_lists_registry_and_exits_2(self, capsys):
        code = main(COMPILE + ["--passes", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nope" in captured.err
        for name in pass_names():
            assert name in captured.err

    def test_passing_validators_leave_compilation_unchanged(self, capsys):
        assert main(COMPILE) == 0
        plain = json.loads(capsys.readouterr().out)
        code = main(
            COMPILE + ["--passes", "validate-connectivity,validate-rsg"]
        )
        assert code == 0
        gated = json.loads(capsys.readouterr().out)
        assert gated["rsl_count"] == plain["rsl_count"]
        assert gated["fusion_count"] == plain["fusion_count"]

    def test_validator_rejection_prints_diagnostics_json(self, capsys):
        code = main(
            ["compile", "--benchmark", "qft", "--qubits", "25",
             "--virtual-size", "2", "--passes", "validate-connectivity"]
        )
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.out)
        assert payload["error"] == "validation"
        assert payload["schema"] == DIAGNOSTICS_SCHEMA_VERSION
        assert payload["validator"] == "validate-connectivity"
        rules = [d["rule"] for d in payload["diagnostics"]]
        assert "connectivity/width" in rules
        assert "rejected the program" in captured.err

    def test_baseline_runs_validators_too(self, capsys):
        code = main(
            ["baseline", "--benchmark", "qft", "--qubits", "25",
             "--virtual-size", "2", "--passes", "validate-connectivity"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "validation"

    def test_diagnostics_json_passes_schema_checker(self, capsys, tmp_path):
        """The CLI's failure output is exactly what CI's schema gate pins."""
        import sys
        from pathlib import Path

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        sys.path.insert(0, str(bench_dir))
        try:
            from passes_schema import validate_diagnostics
        finally:
            sys.path.remove(str(bench_dir))
        code = main(
            ["compile", "--benchmark", "qft", "--qubits", "25",
             "--virtual-size", "2", "--passes", "validate-connectivity"]
        )
        assert code == 2
        capture = tmp_path / "diag.json"
        capture.write_text(capsys.readouterr().out)
        assert validate_diagnostics(capture) == []


class TestFrontDoorParity:
    """``repro baseline`` and a serve ``baseline`` request run one chain:
    an inserted validator sees the translated pattern through either door.
    qaoa-9's circuit passes the connectivity rules; its pattern does not."""

    ARGS = {"benchmark": "qaoa", "qubits": 9, "max_rsl": 1000,
            "passes": "validate-connectivity"}

    def test_cli_and_server_reject_with_the_same_diagnostics(self, capsys):
        from repro.serve import ServeClient, ServeConfig, ServerThread

        code = main(
            ["baseline", "--benchmark", "qaoa", "--qubits", "9",
             "--passes", "validate-connectivity", "--max-rsl", "1000"]
        )
        cli = json.loads(capsys.readouterr().out)
        assert code == 2
        with ServerThread(ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                client.wait_until_up()
                run = client.submit({"op": "baseline", **self.ARGS})
        assert run.error is not None
        served = run.error["details"]["diagnostics"]
        assert [d["rule"] for d in served] == ["connectivity/degree"] * 3
        assert cli["diagnostics"] == served

    #: One compile request with the sizes and the passes pinned.
    REQUEST = {"benchmark": "qaoa", "qubits": 4, "rate": 0.9, "rsl_size": 36,
               "virtual_size": 3, "max_rsl": 10**5,
               "passes": "validate-connectivity"}

    def test_cli_and_server_compile_to_the_same_result(self, capsys):
        """``repro compile --json`` extends the serve ``result`` payload:
        the same fields give the same circuit and the same ``fields()``."""
        from repro.serve import ServeClient, ServeConfig, ServerThread

        argv = ["compile", "--json"]
        for name, value in self.REQUEST.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        cli = json.loads(capsys.readouterr().out)
        with ServerThread(ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                client.wait_until_up()
                run = client.submit({"op": "compile", **self.REQUEST})
        served = run.raise_for_error().result
        assert set(served) <= set(cli)
        deterministic = set(served) - {"pass_timings", "cache"}
        assert {"benchmark", "num_qubits", "rsl_count", "pl_ratio"} <= deterministic
        assert {key: cli[key] for key in deterministic} == {
            key: served[key] for key in deterministic
        }
        assert set(cli["pass_timings"]) == set(served["pass_timings"])
        assert "validate-connectivity" in served["pass_timings"]

    def test_submit_offers_a_flag_for_every_compile_field(self, capsys):
        from repro.serve.protocol import _REQUEST_SPEC

        with pytest.raises(SystemExit):
            main(["submit", "--help"])
        help_text = capsys.readouterr().out
        required, optional = _REQUEST_SPEC["compile"]
        for field in (*required, *optional):
            flag = "--" + field.replace("_", "-")
            assert re.search(rf"{flag}\b", help_text), flag

    @pytest.mark.parametrize(
        "request_flags",
        [
            ["--name", "table2", "--benchmark", "qaoa", "--qubits", "4"],
            ["--name", "table2", "--stats"],
            ["--benchmark", "qaoa", "--qubits", "4", "--stats"],
        ],
    )
    def test_submit_request_kinds_exclude_each_other(
        self, capsys, monkeypatch, request_flags
    ):
        """Two request kinds in one ``repro submit`` are a usage error
        before any connection, never a silently dropped request."""

        def no_client(*args, **kwargs):
            raise AssertionError("submit built a client")

        monkeypatch.setattr("repro.serve.ServeClient", no_client)
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--port", "9", *request_flags])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "request_flags, message",
        [
            (["--name", "table2", "--rate", "0.9", "--baseline"],
             "submit: --rate, --baseline do not apply to experiment requests"),
            (["--benchmark", "qaoa", "--qubits", "4", "--scale", "paper"],
             "submit: --scale does not apply to compile requests"),
            (["--stats", "--seed", "0"],
             "submit: --seed does not apply to stats requests"),
        ],
    )
    def test_submit_rejects_flags_foreign_to_the_request_kind(
        self, capsys, monkeypatch, request_flags, message
    ):
        """A flag the chosen request does not take is a usage error before
        any connection, never silently left out of the request."""

        def no_client(*args, **kwargs):
            raise AssertionError("submit built a client")

        monkeypatch.setattr("repro.serve.ServeClient", no_client)
        assert main(["submit", "--port", "9", *request_flags]) == 2
        assert capsys.readouterr().err.splitlines() == [message]


class TestPinnedZeroSizes:
    """A pinned size of 0 is a size, not "unset": it reaches the hardware
    and mapper checks instead of turning into Table 1 sizing."""

    def test_settings_keep_a_pinned_zero(self):
        assert PipelineSettings(virtual_size=0).hardware_for(4)[1] == 0
        assert PipelineSettings().hardware_for(4)[1] == 2

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (["--virtual-size", "0"], 1,
             "compile: virtual hardware width must be >= 2, got 0"),
            (["--rsl-size", "0"], 1, "compile: RSL size must be >= 2, got 0"),
            (["--virtual-size", "0", "--passes", "validate-strip-budget"], 2,
             "compile: validator 'validate-strip-budget' rejected the program: "
             "1 error(s) [strip/width]"),
        ],
    )
    def test_cli_ends_in_one_stderr_line(self, capsys, flags, code, message):
        argv = ["compile", "--benchmark", "qaoa", "--qubits", "4", *flags]
        assert main(argv) == code
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize(
        "field, kind, message",
        [
            ("virtual_size", "MappingError",
             "virtual hardware width must be >= 2, got 0"),
            ("rsl_size", "HardwareError", "RSL size must be >= 2, got 0"),
        ],
    )
    def test_serve_request_ends_in_one_error_frame(self, field, kind, message):
        from repro.serve import ServeClient, ServeConfig, ServerThread

        with ServerThread(ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                client.wait_until_up()
                run = client.submit(
                    {"op": "compile", "benchmark": "qaoa", "qubits": 4, field: 0}
                )
        errors = [frame for frame in run.frames if frame["frame"] == "error"]
        assert errors == [run.frames[-1]]
        assert (run.error["kind"], run.error["error"]) == (kind, message)
