"""CLI for the observability layer.

Usage::

    python -m repro.obs report PROFILE.json
    python -m repro.obs report STORE/manifests/run-....json
    python -m repro.obs trace RUN_ID --store PATH_OR_URL --chrome out.json
    python -m repro.obs trend --store PATH_OR_URL [--json]

``report`` renders a saved phase profile (``--profile-json`` output) or
a run-manifest JSON, with the phase profile of the run's recorded
trace.  ``trace`` looks up one run's recorded trace — by run id in a
store (local path or ``tcp://``/``unix://`` URL), or directly from a
manifest JSON file — prints a summary, and with
``--chrome`` exports Chrome trace-event JSON for chrome://tracing /
https://ui.perfetto.dev.  ``trend`` aggregates every manifest in a
store into cross-run cache-efficiency / retry-rate / phase-time trend
tables (``--json`` for machine-readable rows).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.errors import HarnessError, StoreError
from repro.obs.report import (
    is_manifest_payload,
    load_payload,
    manifest_trace,
    render_manifest,
    render_profile,
)
from repro.obs.spans import PhaseProfile


def _cmd_report(args: argparse.Namespace) -> str:
    payload = load_payload(args.profile)
    if is_manifest_payload(payload):
        return render_manifest(payload, title=f"run manifest — {args.profile}")
    if isinstance(payload, dict) and "profile" in payload:
        payload = payload["profile"]  # the --profile-json wrapper
    return render_profile(
        PhaseProfile.from_dict(payload),
        title=f"phase profile — {args.profile}",
    )


def _manifest_payload(run_id: str, store: str | None) -> dict:
    if pathlib.Path(run_id).is_file():
        payload = load_payload(run_id)
        if not is_manifest_payload(payload):
            raise HarnessError(f"{run_id} is not a run-manifest JSON")
        return payload
    if store is None:
        raise HarnessError(
            f"run {run_id!r} is not a manifest file; pass --store to look "
            f"it up in a run store"
        )
    from repro.serve.url import open_existing_store  # late: avoid an import cycle

    with open_existing_store(store) as opened:
        manifest = opened.manifest(run_id)
    if manifest is None:
        raise HarnessError(f"run {run_id!r} not found in store {store}")
    return manifest.to_payload()


def _cmd_trace(args: argparse.Namespace) -> str:
    payload = _manifest_payload(args.run_id, args.store)
    trace = manifest_trace(payload)
    if trace is None:
        trace_id = (payload.get("stats") or {}).get("trace_id")
        hint = f" (trace id was {trace_id})" if trace_id else ""
        raise HarnessError(
            f"run {payload.get('run_id')} has no recorded trace{hint} — "
            f"rerun with tracing armed (e.g. --trace)"
        )
    out = [trace.describe()]
    if args.chrome:
        trace.write_chrome(args.chrome)
        out.append(f"chrome trace written to {args.chrome}")
    return "\n".join(out)


def _cmd_trend(args: argparse.Namespace) -> str:
    from repro.obs.trend import collect_trend, render_trend

    rows = collect_trend(args.store)
    if args.json:
        return json.dumps(rows, indent=2, sort_keys=True)
    return render_trend(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render a saved phase profile or run manifest"
    )
    report.add_argument(
        "profile",
        help="profile JSON (--profile-json output) or a run-manifest JSON "
        "from a store's manifests/ directory",
    )
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace", help="summarize / export one run's recorded trace"
    )
    trace.add_argument(
        "run_id", help="run id to look up in --store, or a manifest JSON path"
    )
    trace.add_argument(
        "--store", help="store directory or tcp:// / unix:// store URL"
    )
    trace.add_argument(
        "--chrome",
        metavar="OUT_JSON",
        help="write Chrome trace-event JSON (chrome://tracing, Perfetto)",
    )
    trace.set_defaults(func=_cmd_trace)

    trend = sub.add_parser(
        "trend", help="cross-run cache/retry/phase trend tables"
    )
    trend.add_argument(
        "--store",
        required=True,
        help="store directory or tcp:// / unix:// store URL",
    )
    trend.add_argument(
        "--json", action="store_true", help="emit raw trend rows as JSON"
    )
    trend.set_defaults(func=_cmd_trend)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        rendered = args.func(args)
    except (HarnessError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(rendered)
    except BrokenPipeError:  # e.g. piped into head; not an error
        return 0
    return 0
