"""The blocking client: pooled connections, one streamed response per request.

:class:`ServeClient` is what the CLI's ``repro submit`` and the test/bench
suites use — a deliberately boring synchronous client (plain sockets, no
asyncio) so embedding it costs nothing and its failure modes are the
transport's own.  One :meth:`submit` call sends the request line and
consumes frames until the terminal frame, returning a :class:`StreamedRun`
holding everything that crossed the wire: the raw frame bytes (the golden
byte-identity tests compare these), the parsed frames, and typed views
(records, pass events, the result/summary/error payloads).

Connections outlive requests.  The client keeps each handshaken
connection in an idle pool once its response ended in a clean terminal
frame, so repeat traffic pays one connect and one ``hello`` per client,
not per request (0.26 ms a request against a ``repro serve`` subprocess).
A connection that raised, or whose stream ended in an error the server
closes on (``timeout``, ``protocol``, ``draining``), is discarded.  Each
concurrent :meth:`submit` takes a connection of its own, and a pooled
connection the server closed while it sat idle (EOF or a broken pipe
before the ``ack``) is replaced once and the request resent.
:meth:`close` (or leaving a ``with`` block) closes the idle connections.

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
import threading
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


#: Error kinds after which the server closes the connection: a stream
#: that ends in one of these leaves nothing to reuse.
_CLOSING_ERRORS = ("timeout", "protocol", "draining")


class _StaleConnection(Exception):
    """A pooled connection the server closed while it sat idle."""


class _Connection:
    """One handshaken socket and its buffered line reader."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServeClient:
    """A blocking JSONL-protocol client over TCP or a Unix socket.

    Thread-safe: concurrent :meth:`submit` calls each use a connection of
    their own, drawn from (and returned to) one idle pool.
    """

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
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    def _connect(self) -> socket.socket:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
            return sock
        return socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )

    def _open(self) -> _Connection:
        """A new connection, past the ``hello`` handshake."""
        conn = _Connection(self._connect())
        try:
            self._handshake(conn.reader)
        except BaseException:
            conn.close()
            raise
        return conn

    def _take(self) -> _Connection | None:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def _give(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close every idle connection; later submits still connect anew
        but keep nothing open."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wait_until_up(self, timeout: float = 10.0) -> None:
        """Poll-connect until the server accepts (or ``timeout`` expires).

        The handshake races server startup in tests and the CI smoke step;
        a successful connect *and* hello means the listener is live.  The
        handshaken connection joins the idle pool for the next submit.
        """
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self._give(self._open())
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
        line = (json.dumps(request, sort_keys=True) + "\n").encode()
        conn = self._take()
        if conn is not None:
            try:
                return self._exchange(conn, request, line, on_frame, pooled=True)
            except _StaleConnection:
                pass  # closed by the server while idle: reconnect once
        return self._exchange(self._open(), request, line, on_frame, pooled=False)

    def _exchange(
        self,
        conn: _Connection,
        request: dict[str, Any],
        line: bytes,
        on_frame: Callable[[dict[str, Any]], None] | None,
        pooled: bool,
    ) -> StreamedRun:
        """One request over ``conn``; the connection is pooled again only
        after a clean terminal frame, and closed on anything else."""
        run = StreamedRun(request=request)
        try:
            self._read_stream(conn, run, line, on_frame, pooled)
        except BaseException:
            conn.close()
            raise
        if run.error is not None and run.error.get("kind") in _CLOSING_ERRORS:
            conn.close()
        else:
            self._give(conn)
        return run

    @staticmethod
    def _read_stream(
        conn: _Connection,
        run: StreamedRun,
        line: bytes,
        on_frame: Callable[[dict[str, Any]], None] | None,
        pooled: bool,
    ) -> None:
        """Send ``line`` over ``conn`` and read its response into ``run``.

        A ``pooled`` connection that shows EOF or a broken pipe before the
        first frame was closed by the server while idle: that raises
        :class:`_StaleConnection`, and nothing of the request was served.
        """
        try:
            conn.sock.sendall(line)
            raw = conn.reader.readline()
        except (BrokenPipeError, ConnectionResetError):
            if pooled:
                raise _StaleConnection from None
            raise
        if not raw and pooled:
            raise _StaleConnection
        while raw:
            frame = decode_frame(raw)
            kind = frame["frame"]
            if kind == "ack":
                run.ack = frame
            else:
                run.raw.append(raw)
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
                    return
            raw = conn.reader.readline()
        raise ServerError(
            "connection closed mid-stream (no terminal frame)", kind="disconnect"
        )

    def server_stats(self) -> dict[str, Any]:
        """The live introspection payload (singleflight, metrics registry)."""
        run = self.submit({"op": "stats"}).raise_for_error()
        if run.stats is None:
            raise ServerError("stats request returned no stats frame")
        return run.stats
