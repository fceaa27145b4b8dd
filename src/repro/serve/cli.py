"""``python -m repro.serve`` — boot a store server from the shell.

Typical service::

    python -m repro.serve --root runs/served --shards 4 --tcp 0.0.0.0:9045

Same-machine sharing without TCP::

    python -m repro.serve --root runs/served --unix /tmp/repro-store.sock

``--tcp host:0`` binds an ephemeral port; ``--ready-file PATH`` writes
one JSON object with the *bound* endpoints once listening (the file CI
and tests poll instead of racing the boot).  ``--metrics-file PATH``
dumps the server's live metrics as Prometheus text every
``--metrics-interval`` seconds (atomic replace, so a node-exporter
textfile collector can scrape it) and once more at shutdown.

SIGINT/SIGTERM **drain**: the server immediately refuses new frames
(typed, retryable ``ServerOverloadedError`` — clients fail over or
back off), finishes what is in flight (bounded by ``--drain-grace``
seconds), then closes listeners and snapshots every shard index.  On
the way out the unix socket path and the ready file are removed, so a
restart on the same paths starts clean.  ``--max-inflight N`` arms the
same admission gate against overload during normal operation.

``python -m repro.serve sync …`` is replica reconciliation — see
:mod:`repro.serve.sync`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import pathlib
import signal
import sys
from typing import Any

from repro.errors import ReproError
from repro.obs import render_prometheus

from repro.serve.server import StoreServer


def _dump_metrics(server: StoreServer, path: pathlib.Path) -> None:
    """Atomically replace ``path`` with the registry's Prometheus text."""
    text = render_prometheus(server.registry.snapshot())
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


async def _metrics_pump(
    server: StoreServer, path: pathlib.Path, interval: float
) -> None:
    while True:
        await asyncio.sleep(max(interval, 0.1))
        _dump_metrics(server, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="serve a sharded run store over TCP and/or a unix socket",
    )
    parser.add_argument(
        "--root", required=True, help="service directory holding the shard stores"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="number of shard stores (must match the directory once created)",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on TCP (PORT 0 binds an ephemeral port)",
    )
    parser.add_argument("--unix", metavar="PATH", help="listen on a unix socket")
    parser.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write bound endpoints as JSON once listening",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every shard append (durability over throughput)",
    )
    parser.add_argument(
        "--metrics-file",
        metavar="PATH",
        help="dump live metrics as Prometheus text to PATH periodically "
        "and at shutdown (atomic replace; textfile-collector friendly)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=15.0,
        help="seconds between --metrics-file dumps (default 15)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: refuse (typed, retryable) beyond N "
        "concurrently handled requests",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to this long for in-flight "
        "requests before closing (default 10)",
    )
    return parser


def _parse_tcp(value: str) -> tuple[str, int]:
    host, colon, port = value.rpartition(":")
    if not colon or not port.isdigit():
        raise SystemExit(f"--tcp expects HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


async def _serve(args: argparse.Namespace) -> int:
    server = StoreServer(
        args.root,
        shards=args.shards,
        fsync=args.fsync,
        max_inflight=args.max_inflight,
    )
    endpoints: dict[str, Any] = {"shards": server.n_shards}
    if args.tcp:
        host, port = await server.start_tcp(*_parse_tcp(args.tcp))
        endpoints["tcp"] = [host, port]
        print(f"listening on tcp://{host}:{port}", flush=True)
    if args.unix:
        path = await server.start_unix(args.unix)
        endpoints["unix"] = path
        print(f"listening on unix://{path}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    # ready only once a SIGTERM drains: announcing readiness before the
    # handlers are installed lets an early SIGTERM kill the process hard
    if args.ready_file:
        pathlib.Path(args.ready_file).write_text(json.dumps(endpoints))
    metrics_path = (
        pathlib.Path(args.metrics_file) if args.metrics_file else None
    )
    serve_task = asyncio.ensure_future(server.serve_forever())
    stop_task = asyncio.ensure_future(stop.wait())
    tasks = [serve_task, stop_task]
    if metrics_path is not None:
        _dump_metrics(server, metrics_path)  # exists as soon as we listen
        tasks.append(
            asyncio.ensure_future(
                _metrics_pump(server, metrics_path, args.metrics_interval)
            )
        )
    try:
        await asyncio.wait(
            [serve_task, stop_task], return_when=asyncio.FIRST_COMPLETED
        )
        if stop_task.done() and not serve_task.done():
            # graceful drain: refuse new frames, finish in-flight ones
            server.drain()
            print("draining: refusing new requests", flush=True)
            if not await server.wait_drained(args.drain_grace):
                print(
                    f"drain grace ({args.drain_grace}s) elapsed with "
                    f"{server.inflight} request(s) still in flight",
                    flush=True,
                )
    finally:
        for task in tasks:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if metrics_path is not None:
            _dump_metrics(server, metrics_path)  # final totals
        await server.aclose()
        # leave nothing stale behind: a restart on the same --unix /
        # --ready-file paths must start clean
        for stale in (args.unix, args.ready_file):
            if stale:
                with contextlib.suppress(OSError):
                    pathlib.Path(stale).unlink()
        print("store server stopped", flush=True)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sync":
        from repro.serve.sync import main as sync_main

        return sync_main(argv[1:])
    args = build_parser().parse_args(argv)
    if not args.tcp and not args.unix:
        build_parser().error("give at least one of --tcp / --unix")
    try:
        return asyncio.run(_serve(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
