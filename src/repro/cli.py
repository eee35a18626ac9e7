"""Command-line interface: compile benchmarks, run experiments, poke the
online pass.

Usage (also via ``python -m repro.cli``)::

    python -m repro.cli compile --benchmark qaoa --qubits 4 --rate 0.75
    python -m repro.cli compile --benchmark qaoa --qubits 4 --json
    python -m repro.cli compile --benchmark qft --qubits 9 \\
        --passes validate-connectivity,validate-rsg
    python -m repro.cli baseline --benchmark qft --qubits 4 --rate 0.75
    python -m repro.cli experiment --list
    python -m repro.cli experiment --name table2 --scale bench
    python -m repro.cli experiment --name fig14 --json --runner process --workers 4
    python -m repro.cli experiment --name fig16 --out fig16.csv
    python -m repro.cli experiment --name table2 --cache memory --json
    python -m repro.cli experiment --name table2 --cache disk --cache-dir .cache
    python -m repro.cli experiment --name table2 --runner process --workers 2 \\
        --cache disk --cache-dir .cache --stream --out table2.jsonl
    python -m repro.cli experiment --name fig14 --trace-out trace.jsonl \\
        --events-out events.jsonl
    python -m repro.cli telemetry summarize --trace trace.jsonl --events events.jsonl
    python -m repro.cli submit --port 8731 --benchmark qaoa --qubits 4 \\
        --rsl-size 24 --virtual-size 2
    python -m repro.cli percolate --size 24 --rate 0.75 --node 8

``compile``, ``baseline``, ``experiment`` and ``submit`` build requests
from one schema (:mod:`repro.request`, shared with the server): one flag
per request field, each defaulting to ``None`` so the schema fills every
default, and one builder of the compile and of its reported outcome.
The ``experiment`` subcommand is a thin shell over the experiment registry
(:mod:`repro.experiments.api`): names, scales, and runner backends all come
from the registry and runner table, never from lists duplicated here.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from repro import obs
from repro.baseline import BaselineResult
from repro.circuits.benchmarks import BENCHMARKS
from repro.experiments.api import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    UnknownExperimentError,
    experiment_names,
    get_experiment,
)
from repro.errors import CompilationError, ReproError
from repro.experiments.common import SCALES
from repro.experiments.runners import RUNNERS, make_runner
from repro.experiments.streams import CsvStreamWriter, make_stream_writer
from repro.passes import UnknownPassError, ValidationError, pass_names
from repro.pipeline import PassInsertionError, make_cache
from repro.pipeline.cache import CACHE_KINDS
from repro.request import (
    REQUEST_FIELDS,
    ProtocolError,
    RequestError,
    build_compile,
    compile_payload,
    normalize,
)


def _add_request_args(
    parser: argparse.ArgumentParser, *ops: str, required: bool = False, lead=None
) -> None:
    """One flag per field of the ``ops`` requests (:mod:`repro.request`).

    Each flag is named after its field (``rsl_size`` -> ``--rsl-size``)
    and defaults to ``None``, so :func:`~repro.request.normalize` fills
    every default.  ``required`` makes the required fields required flags;
    ``lead`` (an argparse group) takes each op's first required field, the
    one that names the work.
    """
    options = {
        "benchmark": {"choices": sorted(BENCHMARKS)},
        "rate": {"help": "fusion success rate"},
        "stars": {"help": "resource state size"},
        "rsl_size": {"help": "RSL side (default: Table 1 sizing)"},
        "virtual_size": {"help": "virtual hardware side (default: Table 1 sizing)"},
        "passes": {"metavar": "NAMES", "help": "comma-separated extra passes to "
                   "insert at their default slot: " + ", ".join(pass_names())},
        "name": {"help": "registered experiment name: " + ", ".join(experiment_names())},
        "scale": {"choices": list(SCALES)},
        "runner": {"choices": list(RUNNERS), "help": "execution backend for the jobs"},
        "workers": {"metavar": "N", "help": "worker count for --runner process "
                    "(records are identical for any N)"},
    }
    fields: dict[str, tuple] = {}
    needed: set[str] = set()
    leads: set[str] = set()
    for op in ops:
        required_fields, optional = REQUEST_FIELDS[op]
        leads.add(next(iter(required_fields)))
        needed.update(required_fields)
        fields.update(required_fields)
        fields.update((name, types) for name, (types, _) in optional.items())
    for name, types in fields.items():
        kwargs = {
            "type": float if float in types else types[0],
            "default": None,
            **options.get(name, {}),
        }
        target = parser
        if lead is not None and name in leads:
            target = lead
        elif required and name in needed:
            kwargs["required"] = True
        target.add_argument("--" + name.replace("_", "-"), **kwargs)


def _fields(op: str) -> tuple[str, ...]:
    """The field names of an ``op`` request, required ones first."""
    required, optional = REQUEST_FIELDS[op]
    return (*required, *optional)


def _request_from(args: argparse.Namespace, op: str) -> dict:
    """``op``'s request from the flags given; the schema fills the rest."""
    given = {name: getattr(args, name) for name in _fields(op)}
    return {"op": op, **{k: v for k, v in given.items() if v is not None}}


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        default="off",
        choices=list(CACHE_KINDS),
        help="artifact cache for the deterministic pipeline stages "
        "(results are identical with the cache on or off)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory for --cache disk (implies --cache disk when given "
        "alone); disk is the backend that shares across process pools",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        metavar="BYTES",
        help="LRU eviction budget for the disk cache: least-recently-used "
        "entries are dropped once the store exceeds this many bytes",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a telemetry trace of the run (spans + metrics snapshot); "
        "results are byte-identical with tracing on or off",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        help="stream lifecycle events (run/job/cache) to FILE as JSON "
        "Lines, flushed per event",
    )


@contextmanager
def _telemetry_session(args: argparse.Namespace, spans: bool = True):
    """A telemetry session scoped to one command, when any output was asked.

    Yields the session (or ``None`` when telemetry is off); on exit the
    trace file is written as JSONL.  The events file is streamed live by
    the session itself.  ``spans=False`` keeps counters and events only
    (``serve``).
    """
    trace_out = getattr(args, "trace_out", None)
    events_out = getattr(args, "events_out", None)
    if not trace_out and not events_out:
        yield None
        return
    with obs.session(events_path=events_out, spans=spans) as tele:
        try:
            yield tele
        finally:
            if trace_out:
                tele.write_trace(trace_out)
                print(f"wrote {trace_out}", file=sys.stderr)
            if events_out:
                print(f"wrote {events_out}", file=sys.stderr)


def _cache_from(args: argparse.Namespace):
    """Resolve the cache flags (``--cache-dir`` alone implies disk)."""
    kind = args.cache
    if kind == "off" and args.cache_dir:
        kind = "disk"
    try:
        return make_cache(kind, args.cache_dir, max_bytes=args.cache_max_bytes)
    except CompilationError as exc:
        raise SystemExit(f"cache: {exc}") from exc


def cmd_compile(args: argparse.Namespace) -> int:
    """``compile`` and ``baseline``: one circuit through the command's chain."""
    command = args.command
    try:
        request = normalize(_request_from(args, command))
        circuit, pipeline = build_compile(request, cache=_cache_from(args))
    except ProtocolError as exc:
        print(exc, file=sys.stderr)  # already prefixed with the op
        return 2
    except (RequestError, UnknownPassError, PassInsertionError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    try:
        with _telemetry_session(args) as tele:
            result = pipeline.compile(circuit)
            if tele is not None:
                tele.adopt_compile(result, circuit)
    except ValidationError as exc:
        # Machine-readable diagnostics on stdout (the contract CI's smoke
        # step schema-checks), human summary on stderr, usage-error exit.
        print(exc.to_json())
        print(f"{command}: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # A configuration the compile cannot honour (RSL cap, oversized
        # virtual hardware, a mapper stall, OneQ failing to embed): one
        # line, not a traceback.
        print(f"{command}: {exc}", file=sys.stderr)
        return 1
    baseline = isinstance(result, BaselineResult)
    if args.json:
        # The serve ``result`` payload, extended with the request's seed
        # and rate, the split timings and the compilation's metrics.
        record = {
            "command": command,
            "seed": request["seed"],
            "fusion_success_rate": request["rate"],
            **compile_payload(circuit, result),
            "metrics": result.metrics,
        }
        if not baseline:
            record["offline_seconds"] = result.offline_seconds
            record["online_seconds"] = result.online_seconds
        print(json.dumps(record, indent=2))
        return 0
    fields = result.fields()
    if baseline:
        capped = " (hit the cap)" if fields["capped"] else ""
        print(f"benchmark: {circuit.name}")
        print(f"#RSL:      {fields['rsl_count']}{capped}")
        print(f"#fusion:   {fields['fusion_count']}")
        print(f"restarts:  {fields['restarts']}")
        return 0
    print(f"benchmark:      {circuit.name}")
    print(f"#RSL:           {fields['rsl_count']}")
    print(f"#fusion:        {fields['fusion_count']}")
    print(f"logical layers: {fields['logical_layers']}")
    print(f"PL ratio:       {fields['pl_ratio']:.2f}")
    for name, seconds in result.timings_by_pass.items():
        print(f"{name + ' time:':<21}{seconds:.3f} s")
    if args.show_ir:
        from repro.viz import render_ir

        print()
        print(render_ir(result.mapping.ir, max_layers=args.show_ir))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.list:
        names = experiment_names()  # ensures the registry is populated
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name:<{width}}  {EXPERIMENT_REGISTRY[name].description}")
        return 0
    if not args.name:
        print("experiment: --name is required (or use --list)", file=sys.stderr)
        return 2
    try:
        request = normalize(_request_from(args, "experiment"))
    except ProtocolError as exc:
        print(exc, file=sys.stderr)  # already prefixed with the op
        return 2
    try:
        experiment = get_experiment(request["name"])
    except UnknownExperimentError as exc:
        print(f"experiment: {exc}", file=sys.stderr)
        return 2
    cache = _cache_from(args)
    try:
        runner = make_runner(
            request["runner"],
            max_workers=request["workers"],
            cache=cache,
        )
    except ReproError as exc:
        # A nonpositive worker count is a usage error.
        print(f"experiment: {exc}", file=sys.stderr)
        return 2
    if cache is not None and cache.name == "memory" and runner.name == "process":
        print(
            "note: a memory cache cannot share entries across a process "
            "pool; use --cache disk --cache-dir DIR for parallel sharing",
            file=sys.stderr,
        )
    if request["workers"] is not None and runner.name == "serial":
        print(
            "note: the serial runner ignores --workers; pass "
            "--runner process for a parallel run",
            file=sys.stderr,
        )
    if runner.name != "serial":
        print(
            "note: the process runner measures wall-clock timings under "
            "contention; deterministic fields are unaffected, but use "
            "--runner serial when the seconds columns are the point "
            "(Figs. 14-15)",
            file=sys.stderr,
        )
    # Under --stream --out each record is flushed as it lands (``tail -f``
    # the file mid-sweep; a crash keeps everything completed so far); the
    # folded result is the same either way.
    writer = make_stream_writer(args.out) if args.stream and args.out else None
    records = []
    with _telemetry_session(args):
        try:
            for record in experiment.iter_records(
                request["scale"], seed=request["seed"], runner=runner
            ):
                records.append(record)
                if writer is not None:
                    writer.write(record)
                if args.stream and not args.json:
                    print(f"streamed {len(records)}: {record.job}", file=sys.stderr)
        finally:
            if writer is not None:
                writer.close()
        result = ExperimentResult.from_stream(experiment, records, runner)
    payload = result.to_json_obj()
    if writer is not None:
        if isinstance(writer, CsvStreamWriter) and writer.dropped_keys:
            print(
                "note: the CSV stream fixed its header on the first record "
                f"and dropped later columns {sorted(writer.dropped_keys)}; "
                "use a .json/.jsonl --out for mixed-schema experiments",
                file=sys.stderr,
            )
        print(
            f"wrote {args.out} ({writer.records_written} records, streamed)",
            file=sys.stderr,
        )
    elif args.out:
        if args.out.lower().endswith(".csv"):
            artifact = result.to_csv()
        else:
            artifact = json.dumps(payload, indent=2) + "\n"
        with open(args.out, "w") as handle:
            handle.write(artifact)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.text)
        if cache is not None:
            # Summed from the records, so process-pool workers' lookups count.
            stats = payload["cache"]
            print(
                f"cache ({cache.name}): {stats['hits']} hits, "
                f"{stats['misses']} misses, hit rate {stats['hit_rate']:.0%}",
                file=sys.stderr,
            )
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.summarize import (
        load_events,
        load_trace,
        render_summary,
        summarize_trace,
    )

    try:
        trace = load_trace(args.trace)
        events = load_events(args.events) if args.events else None
    except (OSError, ReproError) as exc:
        print(f"telemetry: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(trace, events)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary(summary))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile service until SIGINT/SIGTERM, then drain and exit."""
    import asyncio
    import signal

    from repro.serve import ReproServer, ServeConfig

    cache = _cache_from(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        cache=cache,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
    )

    async def _run() -> int:
        server = ReproServer(config)
        await server.start()
        if server.port is not None:
            print(f"serving on {config.host}:{server.port}", flush=True)
        if config.unix_path is not None:
            print(f"serving on unix:{config.unix_path}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signame in ("SIGINT", "SIGTERM"):
            try:
                loop.add_signal_handler(getattr(signal, signame), stop.set)
            except (NotImplementedError, OSError):  # non-unix platforms
                pass
        await stop.wait()
        print("draining in-flight requests...", file=sys.stderr)
        await server.shutdown()
        return 0

    # The telemetry session wraps the whole server lifetime, so the trace
    # written at exit covers startup cache verification, every request,
    # and the drain: the server's lifecycle and counters, no request's
    # spans (a long-lived session must not grow with its traffic).
    with _telemetry_session(args, spans=False):
        try:
            return asyncio.run(_run())
        except KeyboardInterrupt:
            return 0


def _submit_request(args: argparse.Namespace) -> dict:
    """Map ``repro submit`` flags onto one protocol request.

    A flag the chosen request kind does not take raises
    :class:`RequestError` naming it, rather than being dropped.
    """
    if args.stats:
        op, takes = "stats", ()
    elif args.name is not None:
        op, takes = "experiment", _fields("experiment")
    else:
        op = "baseline" if args.baseline else "compile"
        takes = (*_fields(op), "baseline")
    names = (*_fields("experiment"), *_fields("compile"))
    given = {name: getattr(args, name) for name in names}
    given["baseline"] = args.baseline or None
    foreign = [
        "--" + name.replace("_", "-")
        for name, value in given.items()
        if value is not None and name not in takes
    ]
    if foreign:
        verb = "does" if len(foreign) == 1 else "do"
        raise RequestError(f"{', '.join(foreign)} {verb} not apply to {op} requests")
    return {"op": "stats"} if op == "stats" else _request_from(args, op)


def cmd_submit(args: argparse.Namespace) -> int:
    """Send one request to a running server; stream the response down."""
    from repro.experiments.streams import JsonlStreamWriter
    from repro.serve import ServeClient, ServerError
    from repro.serve.protocol import record_from_payload

    try:
        request = _submit_request(args)
    except RequestError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    client = ServeClient(
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        timeout=args.timeout,
    )
    if args.wait:
        client.wait_until_up(timeout=args.wait)
    # Records stream to --out (extension-selected writer) or stdout JSONL
    # the moment their frames arrive — the submit path shares the
    # `--stream --out` writers, so server and local files are line-equal.
    writer = make_stream_writer(args.out) if args.out else None
    if writer is None and request["op"] == "experiment" and not args.json:
        writer = JsonlStreamWriter(sys.stdout)

    def on_frame(frame: dict) -> None:
        if frame["frame"] == "record" and writer is not None:
            writer.write(record_from_payload(frame["record"]))
        elif frame["frame"] == "pass" and not args.json:
            print(
                f"pass {frame['pass']}: {frame['seconds']:.3f} s",
                file=sys.stderr,
            )

    try:
        run = client.submit(request, on_frame=on_frame)
    except (OSError, ReproError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
        if args.out and writer is not None:
            writer.close()
            print(
                f"wrote {args.out} ({writer.records_written} records, "
                "streamed)",
                file=sys.stderr,
            )
    if args.frames_out:
        # The response verbatim: the ack, then the shared stream's exact
        # wire bytes — what benchmarks/serve_schema.py validates in CI.
        from repro.serve.protocol import encode_frame

        with open(args.frames_out, "wb") as handle:
            if run.ack is not None:
                handle.write(encode_frame(run.ack))
            for line in run.raw:
                handle.write(line)
        print(f"wrote {args.frames_out}", file=sys.stderr)
    try:
        run.raise_for_error()
    except ServerError as exc:
        print(f"submit: server error ({exc.kind}): {exc}", file=sys.stderr)
        return 1
    if run.ack is not None and run.coalesced:
        print("coalesced onto an in-flight identical request", file=sys.stderr)
    if request["op"] == "stats":
        print(json.dumps(run.stats, indent=2))
        return 0
    if request["op"] == "experiment":
        result = run.experiment_result()
        if args.json:
            print(json.dumps(result.to_json_obj(), indent=2))
        else:
            summary = run.summary or {}
            print(
                f"streamed {len(run.records)} records in "
                f"{summary.get('elapsed_s', 0.0):.3f} s "
                f"(cache hit rate {summary.get('cache', {}).get('hit_rate', 0.0):.0%})",
                file=sys.stderr,
            )
        return 0
    print(json.dumps(run.result, indent=2))
    return 0


def cmd_percolate(args: argparse.Namespace) -> int:
    from repro.online.percolation import sample_lattice
    from repro.online.renormalize import renormalize
    from repro.viz import render_renormalization

    for bad, message in (
        (args.size < 1, f"--size must be >= 1, got {args.size}"),
        (not 0.0 <= args.rate <= 1.0, f"--rate must be in [0, 1], got {args.rate}"),
        (args.node < 1, f"--node must be >= 1, got {args.node}"),
        (args.seed < 0, f"--seed must be >= 0, got {args.seed}"),
    ):
        if bad:
            print(f"percolate: {message}", file=sys.stderr)
            return 2
    lattice = sample_lattice(args.size, args.rate, rng=args.seed)
    target = max(1, args.size // args.node)
    result = renormalize(lattice.copy(), target)
    print(
        f"RSL {args.size}x{args.size} at p={args.rate}: renormalization to "
        f"{target}x{target} {'succeeded' if result.success else 'FAILED'} "
        f"(achieved {result.lattice_size}, visited {result.visited_sites})"
    )
    print(render_renormalization(lattice, result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="OnePerc reproduction CLI"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("compile", "compile with OnePerc"),
        ("baseline", "run the OneQ repeat-until-success baseline"),
    ):
        compile_parser = commands.add_parser(name, help=help_text)
        _add_request_args(compile_parser, name, required=True)
        compile_parser.add_argument(
            "--json",
            action="store_true",
            help="emit a machine-readable JSON record (with per-pass timings) "
            "instead of the human-readable report",
        )
        if name == "compile":
            compile_parser.add_argument(
                "--show-ir", type=int, default=0, metavar="N",
                help="print the first N IR layers",
            )
        _add_cache_args(compile_parser)
        _add_telemetry_args(compile_parser)
        compile_parser.set_defaults(handler=cmd_compile)

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a table/figure via the experiment registry"
    )
    _add_request_args(experiment_parser, "experiment")
    experiment_parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    experiment_parser.add_argument(
        "--stream",
        action="store_true",
        help="yield records as they complete instead of waiting for the "
        "whole sweep; with --out, the writer flushes per record "
        "(.csv -> incremental CSV, otherwise JSON Lines)",
    )
    experiment_parser.add_argument(
        "--json",
        action="store_true",
        help="print the structured records as JSON instead of the rendered table",
    )
    experiment_parser.add_argument(
        "--out",
        metavar="FILE",
        help="also export the records to FILE (.csv -> CSV, otherwise JSON)",
    )
    _add_cache_args(experiment_parser)
    _add_telemetry_args(experiment_parser)
    experiment_parser.set_defaults(handler=cmd_experiment)

    telemetry_parser = commands.add_parser(
        "telemetry",
        help="inspect trace/event files written by --trace-out/--events-out",
    )
    telemetry_commands = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize_parser = telemetry_commands.add_parser(
        "summarize",
        help="per-pass wall/CPU time, per-run jobs, and cache hit rate "
        "from a JSONL trace",
    )
    summarize_parser.add_argument(
        "--trace", required=True, metavar="FILE", help="JSONL trace file"
    )
    summarize_parser.add_argument(
        "--events", metavar="FILE", help="JSONL events file (adds event counts)"
    )
    summarize_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    summarize_parser.set_defaults(handler=cmd_telemetry)

    serve_parser = commands.add_parser(
        "serve",
        help="run the streaming compile service (JSONL over TCP/unix socket)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (0 picks a free port, printed at startup)",
    )
    serve_parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="also (or instead) listen on a unix domain socket at PATH",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="concurrent compiles; further requests queue (identical "
        "concurrent requests coalesce onto one compile regardless)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock bound; a timed-out subscriber gets an "
        "error frame (a coalesced compile keeps serving other subscribers)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests before cancelling",
    )
    _add_cache_args(serve_parser)
    _add_telemetry_args(serve_parser)
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = commands.add_parser(
        "submit",
        help="send one request to a running `repro serve` and stream the result",
    )
    submit_parser.add_argument("--host", default="127.0.0.1")
    submit_parser.add_argument("--port", type=int, default=None)
    submit_parser.add_argument(
        "--unix-socket", metavar="PATH", default=None,
        help="connect over a unix domain socket instead of TCP",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout for connect and reads",
    )
    submit_parser.add_argument(
        "--wait", type=float, nargs="?", const=10.0, default=None,
        metavar="SECONDS",
        help="poll until the server accepts connections before submitting "
        "(races startup; bare --wait polls for 10 s)",
    )
    request_group = submit_parser.add_mutually_exclusive_group(required=True)
    _add_request_args(submit_parser, "experiment", "compile", lead=request_group)
    request_group.add_argument(
        "--stats", action="store_true",
        help="fetch the server's live introspection snapshot",
    )
    submit_parser.add_argument(
        "--baseline", action="store_true",
        help="with --benchmark: run the OneQ baseline instead of the OnePerc "
        "compile",
    )
    submit_parser.add_argument(
        "--json", action="store_true",
        help="print the folded result as JSON instead of streaming records",
    )
    submit_parser.add_argument(
        "--out", metavar="FILE",
        help="stream records to FILE as they arrive (.csv -> CSV, else JSONL)",
    )
    submit_parser.add_argument(
        "--frames-out", metavar="FILE",
        help="also dump the response's raw protocol frames (ack + stream) "
        "as JSONL, for benchmarks/serve_schema.py validation",
    )
    submit_parser.set_defaults(handler=cmd_submit)

    percolate_parser = commands.add_parser(
        "percolate", help="sample and renormalize one RSL"
    )
    percolate_parser.add_argument("--size", type=int, default=24)
    percolate_parser.add_argument("--rate", type=float, default=0.75)
    percolate_parser.add_argument("--node", type=int, default=8)
    percolate_parser.add_argument("--seed", type=int, default=0)
    percolate_parser.set_defaults(handler=cmd_percolate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro submit --stats | head`) closed
        # early; swallow the noise and let the shell see a clean exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
