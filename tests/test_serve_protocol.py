"""The serve wire protocol: frame round-trips and request validation."""

import io
import json

import pytest

from repro.experiments.api import ExperimentRecord
from repro.experiments.streams import JsonlStreamWriter
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_FRAMES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    hello_frame,
    record_frame,
    record_from_payload,
    summary_frame,
    validate_request,
)


def _record(**overrides):
    base = dict(
        experiment="fig15",
        scale="bench",
        seed=0,
        job="compile:qaoa-4",
        fields={"benchmark": "qaoa-4", "num_qubits": 4},
        timings={"translate": 0.01},
        metrics={"cache_hits": 1, "cache_misses": 3},
    )
    base.update(overrides)
    return ExperimentRecord(**base)


class TestFrames:
    def test_encode_decode_round_trip(self):
        frame = hello_frame()
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoding_is_canonical_one_line(self):
        line = encode_frame(summary_frame(
            "experiment", records=3, elapsed_s=1.0,
            cache={"hits": 0, "misses": 3, "hit_rate": 0.0},
        ))
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        # sorted keys: encoding is a pure function of content
        assert line == encode_frame(decode_frame(line))

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1,2,3]\n")
        with pytest.raises(ProtocolError):
            decode_frame(b'{"frame":"nope"}\n')

    def test_record_frame_round_trips_through_payload(self):
        record = _record()
        frame = decode_frame(encode_frame(record_frame(7, record)))
        assert frame["seq"] == 7
        back = record_from_payload(frame["record"])
        assert back == record

    def test_record_payload_matches_jsonl_writer_shape(self):
        # The record frame carries exactly the JsonlStreamWriter line, so
        # server streams and local --stream files line up.
        record = _record()
        handle = io.StringIO()
        JsonlStreamWriter(handle).write(record)
        payload = decode_frame(encode_frame(record_frame(0, record)))["record"]
        assert json.dumps(payload, sort_keys=True) + "\n" == handle.getvalue()
        assert set(payload) == {*record.canonical(), "timings", "metrics"}

    def test_malformed_record_payload(self):
        with pytest.raises(ProtocolError):
            record_from_payload({"experiment": "fig15"})

    def test_terminal_frames_cover_every_stream_ending(self):
        assert set(TERMINAL_FRAMES) == {"summary", "error", "stats"}
        assert error_frame("boom")["frame"] in TERMINAL_FRAMES


class TestValidateRequest:
    def test_experiment_defaults_filled(self):
        request = validate_request({"op": "experiment", "name": "fig15"})
        assert request["scale"] == "bench"
        assert request["seed"] == 0
        assert request["runner"] == "serial"
        assert request["workers"] is None
        assert request["v"] == PROTOCOL_VERSION

    def test_normalization_makes_defaults_explicit(self):
        # Omitting a default and spelling it out normalize identically —
        # the property the single-flight key depends on.
        short = validate_request({"op": "experiment", "name": "fig15"})
        spelled = validate_request(
            {"op": "experiment", "name": "fig15", "scale": "bench", "seed": 0}
        )
        assert short == spelled

    def test_compile_requires_benchmark_and_qubits(self):
        with pytest.raises(ProtocolError, match="missing required"):
            validate_request({"op": "compile", "benchmark": "qaoa"})
        request = validate_request(
            {"op": "compile", "benchmark": "qaoa", "qubits": 4}
        )
        assert request["rate"] == 0.75
        assert "pathfind" not in request

    def test_unknown_op_and_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "explode"})
        with pytest.raises(ProtocolError, match="unknown fields"):
            validate_request(
                {"op": "experiment", "name": "fig15", "bogus": 1}
            )
        # the removed path-search selector is an unknown field like any other
        for request in (
            {"op": "experiment", "name": "fig15", "pathfind": "scalar"},
            {"op": "compile", "benchmark": "qaoa", "qubits": 4, "pathfind": "vector"},
        ):
            with pytest.raises(ProtocolError, match=r"unknown fields \['pathfind'\]"):
                validate_request(request)

    def test_type_errors_are_loud(self):
        with pytest.raises(ProtocolError, match="expected"):
            validate_request({"op": "experiment", "name": 42})
        # bools are not numbers (JSON's true would otherwise pass as int)
        with pytest.raises(ProtocolError, match="bool"):
            validate_request(
                {"op": "compile", "benchmark": "qaoa", "qubits": True}
            )

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="protocol version"):
            validate_request(
                {"op": "experiment", "name": "fig15", "v": PROTOCOL_VERSION + 1}
            )

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            validate_request(["op", "experiment"])
