"""The blocking client: one socket, one request, one streamed response.

:class:`ServeClient` is what the CLI's ``repro submit`` and the test/bench
suites use — a deliberately boring synchronous client (plain sockets, no
asyncio) so embedding it costs nothing and its failure modes are the
transport's own.  One :meth:`submit` call opens a connection, performs the
hello handshake, sends the request line, and consumes frames until the
terminal frame, returning a :class:`StreamedRun` holding everything that
crossed the wire: the raw frame bytes (the golden byte-identity tests
compare these), the parsed frames, and typed views (records, pass events,
the result/summary/error payloads).

A streamed experiment reconstructs the *exact* local result:
:meth:`StreamedRun.experiment_result` folds the records through
:meth:`~repro.experiments.api.ExperimentResult.from_stream`, so a remote
run renders the same tables and reports the same record-derived cache
accounting as a local :meth:`~repro.experiments.api.Experiment.run`.  The
server's own counters come from :meth:`ServeClient.server_stats`.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.experiments.api import (
    ExperimentRecord,
    ExperimentResult,
    get_experiment,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_FRAMES,
    ProtocolError,
    decode_frame,
    record_from_payload,
    validate_request,
)


class ServerError(ReproError):
    """The server answered with an ``error`` frame; carries its ``kind``."""

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.kind = kind


@dataclass
class StreamedRun:
    """Everything one request streamed back, raw and parsed.

    ``raw`` holds the response's wire bytes *after* the per-connection
    ``hello``/``ack`` preamble — exactly the shared single-flight stream,
    so two coalesced clients' ``raw`` compare equal byte-for-byte.
    """

    request: dict[str, Any]
    ack: dict[str, Any] | None = None
    frames: list[dict[str, Any]] = field(default_factory=list)
    raw: list[bytes] = field(default_factory=list)
    records: list[ExperimentRecord] = field(default_factory=list)
    passes: list[dict[str, Any]] = field(default_factory=list)
    result: dict[str, Any] | None = None
    summary: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    stats: dict[str, Any] | None = None

    @property
    def coalesced(self) -> bool:
        return bool(self.ack and self.ack.get("coalesced"))

    def raise_for_error(self) -> "StreamedRun":
        """Raise :class:`ServerError` if the stream ended in an error frame."""
        if self.error is not None:
            raise ServerError(
                self.error.get("error", "server error"),
                kind=self.error.get("kind", "error"),
            )
        return self

    def experiment_result(self) -> ExperimentResult:
        """The streamed records folded into a full local-equivalent result."""
        self.raise_for_error()
        if self.request["op"] != "experiment":
            raise ReproError(
                f"experiment_result() needs an experiment run, "
                f"got op {self.request['op']!r}"
            )
        return ExperimentResult.from_stream(
            get_experiment(self.request["name"]),
            self.records,
            runner=self.request["runner"],
        )


class ServeClient:
    """A blocking JSONL-protocol client over TCP or a Unix socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        unix_path: str | None = None,
        timeout: float | None = None,
    ) -> None:
        if port is None and unix_path is None:
            raise ReproError("ServeClient needs a port or a unix socket path")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout = timeout

    def _connect(self) -> socket.socket:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def wait_until_up(self, timeout: float = 10.0) -> None:
        """Poll-connect until the server accepts (or ``timeout`` expires).

        The handshake races server startup in tests and the CI smoke step;
        a successful connect *and* hello means the listener is live.
        """
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                with self._connect() as sock:
                    self._handshake(sock.makefile("rb"))
                return
            except (OSError, ProtocolError) as exc:
                last = exc
                # A refused local connect costs microseconds; a 50 ms poll
                # added up to 50 ms to every wait and split perfbench's
                # serve-mixed set-up time into two modes 50 ms apart.
                time.sleep(0.005)
        raise ReproError(f"server did not come up within {timeout}s: {last}")

    @staticmethod
    def _handshake(reader) -> None:
        line = reader.readline()
        if not line:
            raise ProtocolError("connection closed before hello")
        hello = decode_frame(line)
        if hello.get("frame") != "hello":
            raise ProtocolError(f"expected hello frame, got {hello!r}")
        if hello.get("v") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol v{hello.get('v')}, "
                f"client v{PROTOCOL_VERSION}"
            )

    def submit(
        self,
        request: dict[str, Any],
        on_frame: Callable[[dict[str, Any]], None] | None = None,
    ) -> StreamedRun:
        """Send one request; consume its stream to the terminal frame.

        ``on_frame`` observes each post-ack frame as it arrives (the CLI
        streams records to stdout through it); the returned
        :class:`StreamedRun` additionally accumulates everything.
        Client-side validation runs first so a malformed request fails
        before touching the network, with the same error the server would
        give.
        """
        request = validate_request(request)
        run = StreamedRun(request=request)
        with self._connect() as sock:
            reader = sock.makefile("rb")
            self._handshake(reader)
            sock.sendall(
                (json.dumps(request, sort_keys=True) + "\n").encode()
            )
            while True:
                line = reader.readline()
                if not line:
                    raise ServerError(
                        "connection closed mid-stream (no terminal frame)",
                        kind="disconnect",
                    )
                frame = decode_frame(line)
                kind = frame["frame"]
                if kind == "ack":
                    run.ack = frame
                    continue
                run.raw.append(line)
                run.frames.append(frame)
                if kind == "record":
                    run.records.append(record_from_payload(frame["record"]))
                elif kind == "pass":
                    run.passes.append(frame)
                elif kind == "result":
                    run.result = frame["result"]
                elif kind == "summary":
                    run.summary = frame
                elif kind == "error":
                    run.error = frame
                elif kind == "stats":
                    run.stats = frame["stats"]
                if on_frame is not None:
                    on_frame(frame)
                if kind in TERMINAL_FRAMES:
                    return run

    def server_stats(self) -> dict[str, Any]:
        """The live introspection payload (singleflight, metrics registry)."""
        run = self.submit({"op": "stats"}).raise_for_error()
        if run.stats is None:
            raise ServerError("stats request returned no stats frame")
        return run.stats
