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

The server answers each connection on a thread of its own while the
main thread waits for a signal, dumping the metrics file on its
interval.  SIGINT/SIGTERM **drain**: the server immediately refuses
new frames (typed, retryable ``ServerOverloadedError`` — clients fail
over or back off), finishes what is in flight (bounded by
``--drain-grace`` seconds), then cuts the remaining connections, waits
for their handlers and closes the shard stores, which snapshots every
shard index.  A boot that fails (a port in use, a non-socket file at
the ``--unix`` path) prints ``error: …``, exits 2 and closes whatever
it opened the same way.  On the way out the unix socket path and the
ready file are removed, so a restart on the same paths starts clean.
``--max-inflight N`` arms the same admission gate against overload
during normal operation.

``python -m repro.serve sync …`` is replica reconciliation — see
:mod:`repro.serve.sync`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import select
import signal
import socket
import sys
from typing import Any, Iterator

from repro.errors import ReproError
from repro.obs import render_prometheus

from repro.serve.server import StoreServer


def _dump_metrics(server: StoreServer, path: pathlib.Path) -> None:
    """Atomically replace ``path`` with the registry's Prometheus text."""
    text = render_prometheus(server.registry.snapshot())
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


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


@contextlib.contextmanager
def _bind_errors(endpoint: str) -> Iterator[None]:
    """Report a listener that cannot bind (a port in use, say) as an
    error the CLI prints, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ReproError(f"cannot listen on {endpoint}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _signal_wakeup(signals: tuple[int, ...]) -> Iterator[socket.socket]:
    """A socket that turns readable once one of ``signals`` arrives.

    The handlers do nothing; the interpreter writes each signal's number
    to the wakeup fd.  A handler that set an event instead could
    deadlock: it runs on the main thread, which may hold that event's
    lock inside the very wait it interrupts.
    """
    wake, wakeup_fd = socket.socketpair()
    wakeup_fd.setblocking(False)
    previous_fd = signal.set_wakeup_fd(wakeup_fd.fileno())
    previous = {sig: signal.signal(sig, lambda *_: None) for sig in signals}
    try:
        yield wake
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        signal.set_wakeup_fd(previous_fd)
        wake.close()
        wakeup_fd.close()


def _serve(args: argparse.Namespace) -> int:
    server = StoreServer(
        args.root,
        shards=args.shards,
        fsync=args.fsync,
        max_inflight=args.max_inflight,
    )
    # remove only what this process made: a --unix path that names
    # someone else's file must survive a refused bind
    made: list[pathlib.Path] = []
    metrics_path = None
    # handlers go in before the ready file: announcing readiness first
    # would let an early SIGTERM kill the process hard
    with _signal_wakeup((signal.SIGINT, signal.SIGTERM)) as wake:
        try:
            endpoints: dict[str, Any] = {"shards": server.n_shards}
            if args.tcp:
                host, port = _parse_tcp(args.tcp)
                with _bind_errors(f"tcp://{host}:{port}"):
                    host, port = server.start_tcp(host, port)
                endpoints["tcp"] = [host, port]
                print(f"listening on tcp://{host}:{port}", flush=True)
            if args.unix:
                with _bind_errors(f"unix://{args.unix}"):
                    path = server.start_unix(args.unix)
                made.append(pathlib.Path(path))
                endpoints["unix"] = path
                print(f"listening on unix://{path}", flush=True)
            if args.ready_file:
                made.append(pathlib.Path(args.ready_file))
                made[-1].write_text(json.dumps(endpoints))
            if args.metrics_file:
                metrics_path = pathlib.Path(args.metrics_file)
                _dump_metrics(server, metrics_path)  # exists once we listen
            interval = max(args.metrics_interval, 0.1) if metrics_path else None
            while not select.select([wake], [], [], interval)[0]:
                _dump_metrics(server, metrics_path)
            # graceful drain: refuse new frames, finish in-flight ones
            server.drain()
            print("draining: refusing new requests", flush=True)
            if not server.wait_drained(args.drain_grace):
                print(
                    f"drain grace ({args.drain_grace}s) elapsed with "
                    f"{server.inflight} request(s) still in flight",
                    flush=True,
                )
        finally:
            if metrics_path is not None:
                _dump_metrics(server, metrics_path)  # final totals
            server.close()
            # leave nothing stale behind: a restart on the same --unix /
            # --ready-file paths must start clean
            for stale in made:
                with contextlib.suppress(OSError):
                    stale.unlink()
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
        return _serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
