"""Store maintenance CLI: ``python -m repro.persist <command> <store>``.

``<store>`` is a local directory or a ``tcp://`` / ``unix://`` URL of a
running ``python -m repro.serve`` service; ``verify`` and ``gc`` run
remotely too (the server audits/compacts each shard and ships back one
aggregated report).

Commands:

* ``stats``   — record/segment/manifest counts and on-disk size; for a
  served store, also the server's live metrics digest (uptime, per-op
  latency quantiles);
* ``verify``  — full checksum audit; exit 1 when the store is unclean;
* ``gc``      — compact segments, drop stale/corrupt/orphan records;
* ``ls-runs`` — list recorded run manifests, oldest first; with
  ``--failures``, expand each run's quarantined-unit records (the
  triage surface of the quarantine-and-resume workflow); with
  ``--trace``, add each run's trace id and span count.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.errors import StoreError
from repro.persist.store import RunStore
from repro.serve.url import open_existing_store


def _metrics_digest(store) -> str | None:
    """A short live-metrics block for served stores (None for local)."""
    metrics = getattr(store, "metrics", None)
    if metrics is None:
        return None
    summary = metrics()["summary"]
    lines = [
        "live metrics:",
        f"  uptime          {summary['uptime_seconds']:.1f}s",
        f"  requests served {summary['requests_served']}"
        f" (in flight {summary['in_flight']:.0f})",
    ]
    for op, digest in sorted(summary["ops"].items()):
        lines.append(
            f"  op {op:<16} n={digest['count']:<6} "
            f"p50={digest['p50_s'] * 1e3:.2f}ms "
            f"p95={digest['p95_s'] * 1e3:.2f}ms "
            f"p99={digest['p99_s'] * 1e3:.2f}ms"
        )
    return "\n".join(lines)


def cmd_stats(store: RunStore, args: argparse.Namespace) -> int:
    print(store.stats().describe())
    digest = _metrics_digest(store)
    if digest is not None:
        print(digest)
    return 0


def cmd_verify(store: RunStore, args: argparse.Namespace) -> int:
    report = store.verify()
    print(report.describe())
    return 0 if report.clean else 1


def cmd_gc(store: RunStore, args: argparse.Namespace) -> int:
    print(store.gc().describe())
    return 0


def _trace_line(manifest) -> str:
    trace = manifest.trace
    if not isinstance(trace, dict):
        return "    trace -"
    trace_id = trace.get("trace_id", "?")
    spans = trace.get("spans")
    count = len(spans) if isinstance(spans, list) else 0
    return f"    trace {trace_id} ({count} spans)"


def cmd_ls_runs(store: RunStore, args: argparse.Namespace) -> int:
    manifests = store.manifests()
    show_trace = getattr(args, "trace", False)
    if getattr(args, "failures", False):
        manifests = [m for m in manifests if m.failures]
        if not manifests:
            print("no runs with recorded failures")
            return 0
        for manifest in manifests:
            print(manifest.describe())
            if show_trace:
                print(_trace_line(manifest))
            for failure in manifest.failures:
                print(f"    {failure.describe()}")
        return 0
    if not manifests:
        print("no runs recorded")
        return 0
    for manifest in manifests:
        print(manifest.describe())
        if show_trace:
            print(_trace_line(manifest))
    return 0


COMMANDS = {
    "stats": (cmd_stats, "record/segment/manifest counts and sizes"),
    "verify": (cmd_verify, "full checksum audit (exit 1 if unclean)"),
    "gc": (cmd_gc, "compact segments and drop dead records"),
    "ls-runs": (cmd_ls_runs, "list recorded run manifests"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.persist",
        description="Inspect and maintain a durable run store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("store", help="path to the store directory")
        if name == "ls-runs":
            command.add_argument(
                "--failures",
                action="store_true",
                help="show only runs with quarantined units, one detail "
                "line per recorded failure",
            )
            command.add_argument(
                "--trace",
                action="store_true",
                help="add each run's trace id and span count",
            )
    args = parser.parse_args(argv)
    handler, _ = COMMANDS[args.command]
    try:
        store = open_existing_store(args.store)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return handler(store, args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
