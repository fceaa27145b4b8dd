"""Render a :class:`~repro.obs.spans.PhaseProfile` as a readable table.

The report groups phases by their nesting path (children indented under
parents), sorted inside each level by total time descending, with a
share-of-parent percentage — the "where did the wall time go" view the
``--profile`` flag of ``examples/reproduce_tables.py`` and the
``python -m repro.obs report`` CLI print.

The CLI also accepts a :class:`~repro.persist.manifest.RunManifest`
JSON file (``manifests/*.json`` inside a run store):
:func:`render_manifest` shows how the run's units and scores were
satisfied and the store read-LRU traffic (hits/misses/bytes), followed
by the phase profile of the run's recorded trace when one was recorded.
Manifests without a trace (untraced runs, and those written before
tracing existed) render the same, minus the trace line and phase table.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.errors import HarnessError
from repro.obs.spans import PhaseProfile
from repro.obs.trace import Trace


def load_payload(path: str | pathlib.Path) -> Any:
    """Raw JSON payload of one report file (profile or run manifest)."""
    path = pathlib.Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise HarnessError(f"cannot read profile {path}: {exc}") from None
    except ValueError as exc:
        raise HarnessError(f"profile {path} is not valid JSON: {exc}") from None


def is_manifest_payload(payload: Any) -> bool:
    """Does this JSON look like a serialized RunManifest?"""
    return (
        isinstance(payload, dict) and "run_id" in payload and "stats" in payload
    )


def load_profile(path: str | pathlib.Path) -> PhaseProfile:
    """Read one profile JSON file (as written by ``--profile-json``)."""
    payload = load_payload(path)
    if isinstance(payload, dict) and "profile" in payload:
        payload = payload["profile"]  # accept the --profile-json wrapper
    return PhaseProfile.from_dict(payload)


def _children(profile: PhaseProfile, parent: str | None) -> list[str]:
    """Direct children of ``parent`` (top-level paths when None)."""
    out = []
    for path in profile.phases:
        if parent is None:
            if "/" not in path:
                out.append(path)
        elif path.startswith(parent + "/") and "/" not in path[len(parent) + 1 :]:
            out.append(path)
    return sorted(out, key=lambda p: -profile.phases[p].total_s)


def profile_title(title: str, dropped: int) -> str:
    """``title``, flagged as lower bounds when spans were dropped."""
    if not dropped:
        return title
    return f"{title} — lower bounds: {dropped} span(s) past the trace cap dropped"


def render_profile(profile: PhaseProfile, *, title: str = "phase profile") -> str:
    """Aligned breakdown table: phase → calls → total → mean → share."""
    if not profile.phases:
        return f"{title}: no phases recorded"
    lines = [
        title,
        f"{'phase':<40} {'calls':>7} {'total ms':>10} {'mean ms':>9} "
        f"{'max ms':>9} {'share':>6}",
    ]
    grand_total = sum(
        profile.phases[p].total_s for p in _children(profile, None)
    )

    def emit(path: str, depth: int, parent_total: float) -> None:
        totals = profile.phases[path]
        share = totals.total_s / parent_total if parent_total > 1e-12 else 0.0
        label = ("  " * depth) + path.rsplit("/", 1)[-1]
        lines.append(
            f"{label:<40} {totals.calls:>7} {totals.total_s * 1000:>10.1f} "
            f"{totals.mean_s * 1000:>9.3f} {totals.max_s * 1000:>9.3f} "
            f"{share * 100:>5.1f}%"
        )
        for child in _children(profile, path):
            emit(child, depth + 1, totals.total_s)

    for top in _children(profile, None):
        emit(top, 0, grand_total)
    lines.append(
        f"{'(sum of top-level phases)':<40} {'':>7} {grand_total * 1000:>10.1f}"
    )
    return "\n".join(lines)


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024:
            digits = 0 if unit == "B" else 1
            return f"{value:.{digits}f} {unit}"
        value /= 1024
    return f"{value:.1f} GiB"


def manifest_trace(payload: dict) -> Trace | None:
    """The trace recorded on one RunManifest JSON, or None.

    Raises :class:`~repro.errors.HarnessError` on a malformed one.
    """
    raw = payload.get("trace")
    return Trace.from_dict(raw) if raw is not None else None


def render_manifest(payload: dict, *, title: str = "run manifest") -> str:
    """Readable summary of one RunManifest JSON: units, scoring, reads,
    and the phase profile of its recorded trace."""
    trace = manifest_trace(payload)
    stats = payload.get("stats") or {}
    total = stats.get("total_units", 0)
    hits = stats.get("read_lru_hits", 0)
    misses = stats.get("read_lru_misses", 0)
    reads = hits + misses
    lines = [
        title,
        f"  run         {payload.get('run_id', '?')}",
        f"  plan        {payload.get('plan_name', '?')!r}  "
        f"fingerprint {str(payload.get('plan_fingerprint', '?'))[:12]}",
        f"  executor    {payload.get('executor', '?')}",
        f"  units       {total}  generated={stats.get('generated', 0)}  "
        f"cache_hits={stats.get('cache_hits', 0)}  "
        f"dedup={stats.get('deduplicated', 0)}",
        f"  scoring     computed={stats.get('scores_computed', 0)}  "
        f"score_hits={stats.get('score_hits', 0)}",
        f"  store reads read-LRU {hits} hit(s) / {misses} miss(es)"
        + (f" ({hits / reads:.0%} hit rate)" if reads else "")
        + f", {_fmt_bytes(stats.get('bytes_read', 0))} from segments",
        f"  wall        {payload.get('wall_seconds', 0.0):.2f}s",
    ]
    trace_id = stats.get("trace_id") or (trace.trace_id if trace is not None else None)
    if trace_id:
        count = f"  {len(trace.spans)} span(s) recorded" if trace else ""
        lines.append(f"  trace       {trace_id}{count}")
    if payload.get("resumed_from"):
        lines.insert(3, f"  resumed     {payload['resumed_from']}")
    if trace is not None:
        title = profile_title("phase profile (recorded with the run)", trace.dropped)
        lines += ["", render_profile(trace.profile(), title=title)]
    return "\n".join(lines)


def profile_payload(profile: PhaseProfile, **extra: Any) -> dict[str, Any]:
    """The JSON wrapper ``--profile-json`` writes (profile + context)."""
    return {"profile": profile.as_dict(), **extra}
