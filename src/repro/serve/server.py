"""The asyncio compile server: bounded workers, coalescing, graceful drain.

:class:`ReproServer` listens on TCP and/or a Unix socket, speaks the JSONL
frame protocol (:mod:`repro.serve.protocol`), and executes compile work on
a bounded thread pool (``max_inflight`` concurrent compiles) so a traffic
burst queues instead of forking the machine.  The asyncio side only ever
shuttles bytes: producers run in worker threads, publish encoded frames
into an :class:`~repro.serve.singleflight.InflightStream`, and every
connection subscribed to that stream forwards the identical bytes.  A
connection serves requests one after another for as long as the client
keeps it open (:class:`~repro.serve.client.ServeClient` pools them).

Single-flight coalescing happens at request-key granularity:
:func:`request_key` hashes the normalized request fields — for a compile
the family (lowercased), qubit count, seed, resolved settings and
inserted passes, which determine the circuit — so the event loop never
builds a circuit, and simultaneous identical requests cost one compile
and N subscriptions.  The worker builds the circuit once, inside the
producer.  Repeat traffic that misses the single-flight window still hits
the shared artifact cache — the server holds one cache for its whole
lifetime, verified (unreadable entries dropped, counted) at startup.

Shutdown is a drain, not a guillotine: listeners close first (no new
connections), in-flight requests run to their terminal frame (bounded by
``drain_timeout``), then every connection still open, idle or not, is
cancelled, and the worker pool shuts down with queued work cancelled.  A
request arriving on a live connection mid-drain gets an ``error`` frame
with kind ``draining``.

The serve session keeps counters only (:func:`repro.obs.session` with
``spans=False``: the server's own, or the one ``repro serve`` opens for
``--trace-out``): no compile or experiment span enters it, so a server
that runs for weeks holds a bounded registry, not a growing span list.

:class:`ServerThread` hosts a server on a background event loop for tests,
benchmarks, and synchronous embedders.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import ReproError
from repro.experiments.api import get_experiment
from repro.experiments.runners import make_runner
from repro.pipeline.cache import DiskCache, cache_summary
from repro.pipeline.context import PassTiming
from repro.request import (
    RequestError,
    build_compile,
    compile_payload,
    settings_for,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    ack_frame,
    encode_frame,
    error_frame,
    hello_frame,
    pass_frame,
    record_frame,
    result_frame,
    stats_frame,
    summary_frame,
    validate_request,
)
from repro.serve.singleflight import InflightStream, SingleFlight


@dataclass
class ServeConfig:
    """Everything one server needs; the CLI maps flags onto this 1:1."""

    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral, bound port on ``server.port``); ``None``
    #: disables TCP entirely (Unix-socket-only deployments).
    port: int | None = 0
    unix_path: str | None = None
    #: Shared artifact cache (:class:`~repro.pipeline.cache.ArtifactCache`
    #: or ``None``) — one store serves every request of the server's life.
    cache: Any = None
    #: Concurrent compiles; further requests queue on the worker pool.
    max_inflight: int = 4
    #: Per-request wall-clock bound (seconds); ``None`` = unbounded.  A
    #: timed-out subscriber gets an ``error`` frame; a coalesced compile
    #: keeps running for its other subscribers.
    request_timeout: float | None = None
    #: How long shutdown waits for in-flight requests before cancelling.
    drain_timeout: float = 30.0


def request_key(request: dict[str, Any]) -> str:
    """The single-flight key of a normalized request.

    Compile/baseline requests key on the fields that determine their
    work: the benchmark family lowercased (as
    :func:`~repro.circuits.benchmarks.make_benchmark` reads it), the
    qubit count and seed that build the circuit, the resolved
    :class:`PipelineSettings` and the inserted ``passes``.  No circuit is
    built: the key costs microseconds on the event loop, and a request
    the family's factory rejects fails in its producer.  Experiment
    requests key on the normalized request fields (runner config
    included: coalesced subscribers share *one* stream, so its execution
    backend must be part of the identity).
    """
    if request["op"] == "experiment":
        parts = [
            "op=experiment",
            *(
                f"{name}={request[name]!r}"
                for name in ("name", "scale", "seed", "runner", "workers")
            ),
        ]
    else:
        parts = [
            f"op={request['op']}",
            f"benchmark={request['benchmark'].lower()!r}",
            f"qubits={request['qubits']}",
            f"seed={request['seed']}",
            f"config={settings_for(request)!r}",
            f"passes={request['passes']!r}",
        ]
    return hashlib.blake2b("\n".join(parts).encode(), digest_size=20).hexdigest()


class ReproServer:
    """One serving process: listeners + worker pool + single-flight + cache."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cache = self.config.cache
        self.singleflight = SingleFlight()
        self.port: int | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._pool = None  # ThreadPoolExecutor, created in start()
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._started_at = time.time()
        # Requests between validation and their terminal frame; only the
        # event loop's coroutines touch it.
        self._requests_active = 0
        self._own_session = None  # obs.session() cm when we opened one

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners, verify the cache, spin up the worker pool.

        The server always runs under a telemetry session — it counts its
        requests, errors and cache lookups in that session's registry,
        and the stats request serves the registry snapshot — joining the
        active one (the CLI's ``--trace-out``/``--events-out`` session) or
        opening its own counters-only session for its lifetime.
        """
        from concurrent.futures import ThreadPoolExecutor

        if obs.active() is None:
            self._own_session = obs.session(spans=False)
            self._own_session.__enter__()
        self._tele = obs.active()
        if isinstance(self.cache, DiskCache):
            # A torn entry would surface as a mid-request unpickle error;
            # startup is the one moment to verify the whole store.
            self.cache.verify()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight, thread_name_prefix="serve"
        )
        self._started_at = time.time()
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._on_connect,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_FRAME_BYTES,
            )
            self._servers.append(server)
            self.port = server.sockets[0].getsockname()[1]
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(
                self._on_connect, path=self.config.unix_path, limit=MAX_FRAME_BYTES
            )
            self._servers.append(server)
        if not self._servers:
            raise ReproError("serve: neither a TCP port nor a unix socket given")
        obs.event(
            "serve_started", port=self.port, unix_path=self.config.unix_path
        )

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Graceful drain: stop accepting, finish in-flight, then tear down."""
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        self._draining = True
        for server in self._servers:
            server.close()
        deadline = time.monotonic() + drain_timeout
        while self._requests_active and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        # Clients keep connections open between requests, so idle ones
        # close here with the stragglers.  Only then can the listeners'
        # wait_closed return: from Python 3.12 on it waits for every
        # connection the listener accepted.  Loop: a connection accepted
        # just before the close may start its handler during the gather.
        while self._conn_tasks:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in self._servers:
            await server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self.config.unix_path is not None:
            Path(self.config.unix_path).unlink(missing_ok=True)
        obs.event(
            "serve_stopped",
            requests=int(self._tele.metrics.counter("serve.requests")),
        )
        if self._own_session is not None:
            self._own_session.__exit__(None, None, None)
            self._own_session = None

    # -- connection handling -------------------------------------------------

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        obs.count("serve.connections")
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.CancelledError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away or we are tearing down — both fine
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await self._send(writer, hello_frame())
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # over the stream limit: a garbage client
                await self._send(
                    writer, error_frame("request line too long", kind="protocol")
                )
                return
            if not line:
                return  # EOF: client done with this connection
            if not line.strip():
                continue
            if self._draining:
                await self._send(
                    writer, error_frame("server is draining", kind="draining")
                )
                return
            try:
                request = validate_request(_parse_request(line))
            except ProtocolError as exc:
                # A malformed request fails *that request*; the connection
                # stays usable (the client may just have typoed one field).
                obs.count("serve.errors")
                await self._send(writer, error_frame(str(exc), kind="protocol"))
                continue
            self._requests_active += 1
            try:
                await asyncio.wait_for(
                    self._dispatch(request, writer), self.config.request_timeout
                )
            except asyncio.TimeoutError:
                # The subscriber is cancelled mid-frame-stream, so the line
                # discipline is broken: error out and close the connection.
                # A coalesced producer keeps running for other subscribers.
                obs.count("serve.errors")
                await self._send(
                    writer,
                    error_frame(
                        f"request exceeded {self.config.request_timeout}s",
                        kind="timeout",
                    ),
                )
                return
            finally:
                self._requests_active -= 1

    async def _dispatch(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = request["op"]
        obs.count("serve.requests")
        obs.count(f"serve.requests.{op}")
        if op == "stats":
            await self._send(
                writer, ack_frame(request["id"], op, key="stats", coalesced=False)
            )
            await self._send(writer, stats_frame(self.stats()))
            return
        key = request_key(request)
        stream, leader = self.singleflight.join(
            key, lambda s: self._pool.submit(self._produce, s, request)
        )
        await self._send(writer, ack_frame(request["id"], op, key, not leader))
        async for chunk in stream.asubscribe():
            writer.write(chunk)
            await writer.drain()

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: dict[str, Any]) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    # -- producers (worker threads) ------------------------------------------

    def _produce(self, stream: InflightStream, request: dict[str, Any]) -> None:
        """Run one compile/experiment, publishing frames; always finishes."""
        obs.count("serve.produced")
        start = time.perf_counter()
        try:
            if request["op"] == "experiment":
                self._produce_experiment(stream, request, start)
            else:
                self._produce_compile(stream, request, start)
        except Exception as exc:
            # Failure is a frame, not an exception: every subscriber of the
            # stream (current and late-joining) must see the same terminal.
            # Validator rejections additionally ship their machine-readable
            # diagnostics so clients see rule/severity/location, not just a
            # flattened message.
            details = (
                exc.to_json_obj() if hasattr(exc, "to_json_obj") else None
            )
            kind = "request" if isinstance(exc, RequestError) else type(exc).__name__
            obs.count("serve.errors")
            self.singleflight.retire(stream.key, stream)
            stream.publish(
                encode_frame(error_frame(str(exc), kind=kind, details=details))
            )
        finally:
            self.singleflight.finish(stream.key, stream)

    def _produce_experiment(
        self, stream: InflightStream, request: dict[str, Any], start: float
    ) -> None:
        experiment = get_experiment(request["name"])
        runner = make_runner(
            request["runner"],
            max_workers=request["workers"],
            cache=self.cache,
        )
        # The runner adopts each record into the server's session, which
        # adds its cache counts to ``cache.hits``/``cache.misses``.
        hits = misses = seq = 0
        for record in experiment.iter_records(
            request["scale"], seed=request["seed"], runner=runner
        ):
            stream.publish(encode_frame(record_frame(seq, record)))
            seq += 1
            hits += int(record.metrics.get("cache_hits", 0))
            misses += int(record.metrics.get("cache_misses", 0))
            for name, seconds in record.timings.items():
                obs.observe(f"serve.pass_seconds.{name}", seconds)
        self._publish_summary(
            stream, "experiment", records=seq,
            cache=cache_summary(hits, misses), start=start,
        )

    def _produce_compile(
        self, stream: InflightStream, request: dict[str, Any], start: float
    ) -> None:
        circuit, pipeline = build_compile(request, self.cache)

        def on_pass(timing: PassTiming) -> None:
            stream.publish(encode_frame(pass_frame(timing.name, timing.seconds)))
            obs.observe(f"serve.pass_seconds.{timing.name}", timing.seconds)

        result = pipeline.compile(circuit, on_pass=on_pass)
        # The serve session keeps counters only: adoption adds the cache
        # counts and builds no span.
        self._tele.adopt_compile(result, circuit)
        payload = compile_payload(circuit, result)
        stream.publish(encode_frame(result_frame(request["op"], payload)))
        self._publish_summary(
            stream, request["op"], records=0, cache=payload["cache"], start=start
        )

    def _publish_summary(
        self,
        stream: InflightStream,
        op: str,
        *,
        records: int,
        cache: dict[str, Any],
        start: float,
    ) -> None:
        elapsed = time.perf_counter() - start
        obs.observe("serve.request_seconds", elapsed)
        # Retire the key *before* the terminal frame goes out: a client that
        # sees the summary and immediately resubmits must start a fresh
        # flight (served from the warm cache), not replay this response.
        self.singleflight.retire(stream.key, stream)
        stream.publish(
            encode_frame(
                summary_frame(
                    op,
                    records=records,
                    elapsed_s=elapsed,
                    cache=cache,
                )
            )
        )

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The live introspection payload behind the ``stats`` op.

        Request, error and cache totals are the registry's ``serve.*`` and
        ``cache.*`` counters under ``metrics``.
        """
        return {
            "uptime_s": time.time() - self._started_at,
            "draining": self._draining,
            "max_inflight": self.config.max_inflight,
            "active": self._requests_active,
            "singleflight": self.singleflight.stats(),
            "metrics": self._tele.metrics.snapshot(),
        }


def _parse_request(line: bytes) -> Any:
    # ValueError covers bad JSON and bytes that are not UTF-8; nesting
    # deeper than the decoder's recursion limit raises RecursionError.
    # Either would otherwise escape the handler and drop the connection.
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"unparsable request: {exc}") from None


# ---------------------------------------------------------------------------
# Background-thread hosting (tests, benches, sync embedders)
# ---------------------------------------------------------------------------


@dataclass
class ServerThread:
    """A :class:`ReproServer` on its own event loop in a daemon thread.

    ``start()`` returns once the listeners are bound (``server.port`` is
    readable); ``stop()`` runs the graceful drain and joins the thread.
    Usable as a context manager — the shape every server test and the
    serve bench share.
    """

    config: ServeConfig = field(default_factory=ServeConfig)
    server: ReproServer | None = None

    def start(self) -> "ServerThread":
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("serve: server thread did not start within 30s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = ReproServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    @property
    def port(self) -> int | None:
        return self.server.port if self.server is not None else None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
