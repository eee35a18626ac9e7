"""Tests for the ASCII visualization helpers and the CLI."""

import numpy as np
import pytest
from oracles import render_ir_scan
from test_ir import random_ir

from repro.circuits.benchmarks import make_benchmark
from repro.cli import build_parser, main
from repro.ir import ROLE_ANCILLA, ROLE_GRAPH, ROLE_WORLDLINE, FlexLatticeIR
from repro.mbqc.translate import translate_circuit
from repro.offline.mapper import OfflineMapper
from repro.online import LayerDemand, renormalize, sample_lattice
from repro.viz import (
    render_demand_profile,
    render_ir,
    render_lattice,
    render_renormalization,
)


class TestVizLattice:
    def test_render_lattice_shape(self):
        lattice = sample_lattice(5, 1.0, rng=0)
        art = render_lattice(lattice)
        lines = art.splitlines()
        assert len(lines) == 5
        assert all(len(line) == 5 for line in lines)
        assert set(art) <= {"o", ".", "\n"}

    def test_dead_sites_rendered(self):
        alive = np.ones((3, 3), dtype=bool)
        alive[1, 1] = False
        lattice = sample_lattice(3, 1.0, rng=0, site_alive=alive)
        assert render_lattice(lattice).splitlines()[1][1] == "."

    def test_render_renormalization_marks_nodes(self):
        lattice = sample_lattice(12, 1.0, rng=0)
        result = renormalize(lattice.copy(), 3)
        art = render_renormalization(lattice, result)
        assert art.count("+") >= 9  # at least one glyph per logical node
        assert "|" in art and "-" in art


class TestVizIR:
    def build_ir(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 1, 0), ROLE_ANCILLA)
        ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        ir.add_node((0, 0, 1), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 1))
        return ir

    def layer_canvas(self, layer: int) -> list[str]:
        """The canvas rows of one layer block of ``render_ir``."""
        block = render_ir(self.build_ir()).split("\n\n")[layer]
        return block.splitlines()[1:]

    def test_layer_glyphs(self):
        assert self.layer_canvas(0)[0][:2] == "Ga"

    def test_worldline_glyph(self):
        assert self.layer_canvas(1)[0][0] == "W"

    def test_render_ir_counts_layers(self):
        art = render_ir(self.build_ir())
        assert "layer 0" in art and "layer 1" in art
        assert "1 temporal in" in art

    def test_render_ir_truncation(self):
        art = render_ir(self.build_ir(), max_layers=1)
        assert "more layers" in art

    def test_render_ir_matches_per_layer_scan_on_long_mapping(self):
        """qft-25 at width 5 maps to 424 layers: the grouped renderer and
        the per-layer scan print the same text, whole and truncated."""
        pattern = translate_circuit(make_benchmark("qft", 25, seed=0))
        ir = OfflineMapper(width=5).map_pattern(pattern).ir
        assert ir.layer_count > 400
        assert render_ir(ir) == render_ir_scan(ir)
        assert render_ir(ir, max_layers=50) == render_ir_scan(ir, max_layers=50)

    @pytest.mark.parametrize("seed", range(10))
    def test_render_ir_matches_per_layer_scan_on_random_irs(self, seed):
        ir = random_ir(seed)
        for max_layers in (None, 0, 3, 100):
            assert render_ir(ir, max_layers) == render_ir_scan(ir, max_layers)

    def test_demand_profile(self):
        art = render_demand_profile(
            [LayerDemand(2, 1, (3,)), LayerDemand(0, 0)]
        )
        assert "##%" in art


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_command(self, capsys):
        code = main(
            [
                "compile",
                "--benchmark", "qaoa",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "100000",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "#RSL:" in output
        assert "PL ratio:" in output

    def test_compile_with_ir_dump(self, capsys):
        code = main(
            [
                "compile",
                "--benchmark", "qaoa",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "100000",
                "--show-ir", "2",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "layer 0" in output

    def test_compile_json_output(self, capsys):
        import json

        code = main(
            [
                "compile",
                "--benchmark", "qaoa",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "100000",
                "--json",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["rsl_count"] > 0
        assert set(record["pass_timings"]) == {
            "translate", "rewrite", "offline-map", "online-reshape"
        }

    def test_baseline_json_output(self, capsys):
        import json

        code = main(
            [
                "baseline",
                "--benchmark", "vqe",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "5000",
                "--json",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["command"] == "baseline"
        assert record["rsl_count"] > 0

    def test_baseline_command(self, capsys):
        code = main(
            [
                "baseline",
                "--benchmark", "vqe",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "5000",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "restarts:" in output

    def test_percolate_command(self, capsys):
        code = main(
            ["percolate", "--size", "16", "--rate", "0.8", "--node", "8"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "renormalization" in output

    def test_bad_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["compile", "--benchmark", "nope", "--qubits", "4"])

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["compile", "--benchmark", "qaoa", "--qubits", "4",
              "--max-rsl", "3"], "RSLs at logical layer"),
            (["compile", "--benchmark", "qaoa", "--qubits", "4",
              "--virtual-size", "100", "--rsl-size", "24"],
             "cannot exceed RSL size"),
            (["compile", "--benchmark", "qaoa", "--qubits", "16",
              "--rate", "0.75", "--virtual-size", "2", "--seed", "0"],
             "no progress"),
            (["baseline", "--benchmark", "qaoa", "--qubits", "16",
              "--rsl-size", "4"], "OneQ could not embed"),
        ],
        ids=["rsl-cap", "oversized-virtual", "mapper-stall", "oneq-embed"],
    )
    def test_compile_failure_is_one_line(self, capsys, argv, kind):
        """A config the compile cannot honour exits 1 with one stderr line
        naming the command, not a traceback (usage errors keep exit 2)."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ")
        assert kind in lines[0]

    @pytest.mark.parametrize("command", ["compile", "baseline"])
    def test_bad_circuit_size_is_one_line_usage_error(self, capsys, command):
        """A size the benchmark factory rejects is a bad argument: one
        stderr line with the factory's message and exit 2, no traceback."""
        code = main([command, "--benchmark", "rca", "--qubits", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{command}: the smallest Cuccaro adder needs 4 qubits"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "--benchmark", "qaoa", "--qubits", "4", "--seed", "-1"],
            ["baseline", "--benchmark", "qaoa", "--qubits", "4", "--seed", "-1"],
            ["experiment", "--name", "table2", "--seed", "-1"],
        ],
        ids=["compile", "baseline", "experiment"],
    )
    def test_negative_seed_is_one_line_usage_error(self, capsys, argv):
        """A negative seed is rejected by the request normalizer before any
        work starts: one stderr line and exit 2, not numpy's traceback."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"{argv[0]}: seed must be >= 0"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--node", "0"], "--node must be >= 1, got 0"),
            (["--node", "-2"], "--node must be >= 1, got -2"),
            (["--size", "0"], "--size must be >= 1, got 0"),
            (["--rate", "1.5"], "--rate must be in [0, 1], got 1.5"),
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
        ],
        ids=["node-0", "node-negative", "size-0", "rate-1.5", "seed-negative"],
    )
    def test_percolate_bad_flag_is_one_line_usage_error(self, capsys, flags, message):
        code = main(["percolate", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"percolate: {message}"]

    def test_compile_json_reports_cache(self, capsys):
        import json

        code = main(
            [
                "compile",
                "--benchmark", "qaoa",
                "--qubits", "4",
                "--rate", "0.9",
                "--rsl-size", "24",
                "--max-rsl", "100000",
                "--cache", "memory",
                "--json",
            ]
        )
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["cache"]["misses"] == 4  # cold cache: every stage missed
        assert record["metrics"]["cache_misses"] == 4


# The experiment subcommand's tests live in tests/test_cli_experiment.py.
