"""Cross-run trend reports over a store's run manifests.

Every run persists a :class:`~repro.persist.manifest.RunManifest` with
its stats (cache hits, read-LRU traffic, retries, wall time) and —
when tracing was on — its trace, whose phase profile gives the phase
times.  This module aggregates those manifests *across runs* into the
trend view the ROADMAP left open: is the cache getting warmer, are
retries creeping up, where is the wall time drifting?

``python -m repro.obs trend --store PATH_OR_URL`` renders the tables;
``--json`` emits the raw rows for CI artifacts.  Works against a local
store directory or a live ``tcp://`` / ``unix://`` store server — any
URL :func:`repro.serve.open_store` accepts; a local path must already
hold a store.
"""

from __future__ import annotations

import time
from typing import Any

from repro.errors import HarnessError
from repro.obs.report import manifest_trace

#: Top-level phase paths surfaced as trend columns when a trace was
#: recorded with the run (others fold into "other").
PHASE_COLUMNS = ("generate", "score", "cache-get", "cache-put")


def _rate(part: float, whole: float) -> float | None:
    return part / whole if whole else None


def trend_row(payload: dict[str, Any]) -> dict[str, Any]:
    """Flatten one manifest payload into a trend row.

    Tolerant of pre-``repro.stats/2`` manifests: missing fields become
    zeros/None, never a crash — trend reports must read old stores.  A
    missing or malformed trace leaves the row's ``phase_s`` empty.
    """
    stats = payload.get("stats") or {}
    total = int(stats.get("total_units", 0) or 0)
    hits = int(stats.get("read_lru_hits", 0) or 0)
    misses = int(stats.get("read_lru_misses", 0) or 0)
    row: dict[str, Any] = {
        "run_id": payload.get("run_id", "?"),
        "plan_name": payload.get("plan_name", "?"),
        "plan_fingerprint": str(payload.get("plan_fingerprint", "?")),
        "started_unix": float(payload.get("started_unix", 0.0) or 0.0),
        "wall_seconds": float(payload.get("wall_seconds", 0.0) or 0.0),
        "total_units": total,
        "generated": int(stats.get("generated", 0) or 0),
        "cache_hit_rate": _rate(float(stats.get("cache_hits", 0) or 0), total),
        "read_lru_hit_rate": _rate(hits, hits + misses),
        "bytes_read": int(stats.get("bytes_read", 0) or 0),
        "retry_rate": _rate(float(stats.get("units_retried", 0) or 0), total),
        "failures": len(payload.get("failures") or []),
        "trace_id": stats.get("trace_id"),
        "phase_s": {},
    }
    try:
        trace = manifest_trace(payload)
    except HarnessError:
        trace = None
    if trace is not None:
        for path, totals in trace.profile().phases.items():
            if "/" in path:
                continue
            column = path if path in PHASE_COLUMNS else "other"
            row["phase_s"][column] = row["phase_s"].get(column, 0.0) + totals.total_s
    return row


def collect_trend(store: str) -> list[dict[str, Any]]:
    """Trend rows for every manifest in ``store`` (path or URL), oldest
    first; a local path that holds no store raises
    :class:`~repro.errors.StoreError`."""
    from repro.serve.url import open_existing_store  # late: avoid an import cycle

    with open_existing_store(store) as opened:
        payloads = [manifest.to_payload() for manifest in opened.manifests()]
    rows = [trend_row(payload) for payload in payloads]
    rows.sort(key=lambda r: (r["started_unix"], r["run_id"]))
    return rows


def _pct(value: float | None) -> str:
    return f"{value * 100:5.1f}%" if value is not None else "     -"


def _age(now: float, started: float) -> str:
    delta = max(now - started, 0.0)
    if delta < 120:
        return f"{delta:.0f}s ago"
    if delta < 7200:
        return f"{delta / 60:.0f}m ago"
    if delta < 172800:
        return f"{delta / 3600:.0f}h ago"
    return f"{delta / 86400:.0f}d ago"


def render_trend(rows: list[dict[str, Any]], *, now: float | None = None) -> str:
    """Trend tables grouped by plan: cache efficiency, retries, phases."""
    if not rows:
        return "trend: no run manifests found"
    now = time.time() if now is None else now
    groups: dict[str, list[dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(row["plan_fingerprint"], []).append(row)
    lines = [f"run trends — {len(rows)} run(s), {len(groups)} plan(s)"]
    for fingerprint, group in groups.items():
        name = group[-1]["plan_name"]
        lines.append("")
        lines.append(
            f"plan {name!r}  fingerprint {fingerprint[:12]}  "
            f"({len(group)} run(s))"
        )
        lines.append(
            f"  {'run':<14} {'age':>8} {'units':>6} {'gen':>6} "
            f"{'cache':>6} {'rdLRU':>6} {'retry':>6} {'fail':>5} "
            f"{'wall s':>8} {'gen s':>7} {'score s':>8}"
        )
        for row in group:
            phase = row["phase_s"]
            gen_s = phase.get("generate")
            score_s = phase.get("score")
            lines.append(
                f"  {str(row['run_id'])[:14]:<14} "
                f"{_age(now, row['started_unix']):>8} "
                f"{row['total_units']:>6} {row['generated']:>6} "
                f"{_pct(row['cache_hit_rate'])} "
                f"{_pct(row['read_lru_hit_rate'])} "
                f"{_pct(row['retry_rate'])} {row['failures']:>5} "
                f"{row['wall_seconds']:>8.2f} "
                + (f"{gen_s:>7.2f} " if gen_s is not None else f"{'-':>7} ")
                + (f"{score_s:>8.2f}" if score_s is not None else f"{'-':>8}")
            )
        first, last = group[0], group[-1]
        if len(group) > 1:
            delta_wall = last["wall_seconds"] - first["wall_seconds"]
            cache_first = first["cache_hit_rate"]
            cache_last = last["cache_hit_rate"]
            drift = ""
            if cache_first is not None and cache_last is not None:
                drift = (
                    f", cache {_pct(cache_first).strip()} → "
                    f"{_pct(cache_last).strip()}"
                )
            lines.append(
                f"  trend: wall {first['wall_seconds']:.2f}s → "
                f"{last['wall_seconds']:.2f}s ({delta_wall:+.2f}s){drift}"
            )
    return "\n".join(lines)
