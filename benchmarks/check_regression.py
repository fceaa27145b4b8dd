"""Bench-regression gate: fail CI when the metrics hot path gets slower.

Compares a freshly written ``BENCH_metrics.json`` (produced by
``bench_metrics_hotpath.py``, in CI under ``REPRO_BENCH_SMOKE=1``)
against the committed baseline and exits non-zero if any timing
regresses beyond the threshold (default 2x).

CI runners and developer machines differ in absolute speed, so raw
wall-clock comparisons across machines flake.  The gate therefore
compares **hardware-normalized timings**: each fast-path timing divided
by the naive-baseline timing measured *in the same run on the same
machine* (``quality_curve_ms / naive_quality_curve_ms`` and
``local_recalibrate_ms_per_trial / naive_...``).  A >2x regression in
the normalized cost means the engine genuinely lost ground against the
reference implementation it is measured by, wherever the run happened.
Raw timings are still printed for the log, and ``--strict`` adds an
absolute wall-clock check for same-machine comparisons.

Usage:
    python benchmarks/check_regression.py \\
        [--baseline benchmarks/baseline/metrics_smoke.json] \\
        [--fresh BENCH_metrics.json] [--threshold 2.0] [--strict]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline" / "metrics_smoke.json"
DEFAULT_FRESH = REPO_ROOT / "BENCH_metrics.json"

# (label, fast-timing field, normalizing naive field)
TRACKED = (
    ("quality_curve", "quality_curve_ms", "naive_quality_curve_ms"),
    (
        "local_recalibrate",
        "local_recalibrate_ms_per_trial",
        "naive_local_recalibrate_ms_per_trial",
    ),
)

# merged sections (bench_persist.py / bench_runtime_scaling.py attach these
# under their own payload keys); each scenario normalizes its hot timing by
# a same-run same-machine reference
SECTION_TRACKED: dict[str, dict[str, tuple[tuple[str, str, str], ...]]] = {
    "persist": {
        "sweep": (("warm_vs_cold", "warm_ms", "cold_ms"),),
        "records": (("get_vs_put", "get_ms_per_record", "put_ms_per_record"),),
        "persist_read": (
            ("get_many_vs_get", "get_many_ms_per_record", "get_ms_per_record"),
            ("warm_lru_vs_get", "warm_lru_ms_per_record", "get_ms_per_record"),
        ),
    },
    "faults": {
        "overhead": (("policy_vs_baseline", "policy_ms", "baseline_ms"),),
        **{
            f"fault_rates_{name}": (
                ("rate30_vs_rate0", "rate30_ms", "rate0_ms"),
            )
            for name in ("serial", "threads")
        },
    },
    "kernels": {
        system: (
            (
                "vectorized_vs_reference",
                "vectorized_ms_per_hyp",
                "reference_ms_per_hyp",
            ),
        )
        for system in ("wilkins", "henson")
    },
    "serve": {
        "remote_records": (
            (
                "remote_vs_local",
                "remote_get_many_ms_per_record",
                "local_get_many_ms_per_record",
            ),
        ),
    },
    "obs": {
        "overhead": (("armed_vs_baseline", "armed_ms", "baseline_ms"),),
    },
    "resilience": {
        "overhead": (
            (
                "replicated_vs_bare",
                "replicated_get_ms_per_record",
                "bare_get_ms_per_record",
            ),
        ),
        "failover": (
            (
                "open_breaker_vs_healthy",
                "open_breaker_ms_per_read",
                "healthy_ms_per_read",
            ),
        ),
    },
}

# absolute floors, mode-independent: these are ratios of two same-run
# timings, so they are hardware-normalized by construction.  get_over_put
# regressing past 2x means the offset-indexed read path came undone;
# vectorized_over_reference past 0.85 means per-hypothesis kernel
# scoring lost most of its lead over the reference bleu/chrf;
# policy_over_baseline past 1.05 means arming the fault-tolerance layer
# costs more than 5% on a healthy run (both timings come from the same
# alternating best-of-N pass, so the ratio is hardware-normalized);
# remote_get_over_local_get past 25x means the networked store's
# pipelined loopback reads lost their batching (measured ~1.3x on an
# idle machine; the cap absorbs CI loopback jitter, while a client that
# stops pipelining or pooling overshoots it by an order of magnitude);
# obs_over_baseline past 1.05 means armed tracing costs more than 5% on
# a run (median of paired per-round ratios, so
# hardware-normalized);
# breaker_over_remote past 1.05 means the armed-but-idle circuit breaker
# costs more than 5% over the bare remote path (median of paired
# per-round ratios against the same server, so hardware-normalized); and
# open_breaker_over_healthy past 3x means reads with a dead replica's
# breaker open stopped skipping the corpse — the whole point of the
# breaker is that steady-state cost stays near the healthy path.
ABSOLUTE_CAPS: tuple[tuple[str, str, str, float], ...] = (
    ("persist", "records", "get_over_put", 2.0),
    ("faults", "overhead", "policy_over_baseline", 1.05),
    ("kernels", "wilkins", "vectorized_over_reference", 0.85),
    ("serve", "remote_records", "remote_get_over_local_get", 25.0),
    ("obs", "overhead", "obs_over_baseline", 1.05),
    ("resilience", "overhead", "breaker_over_remote", 1.05),
    ("resilience", "failover", "open_breaker_over_healthy", 3.0),
)


def load_results(path: pathlib.Path) -> tuple[dict[str, dict], dict]:
    """(results keyed by artifact, full payload) from one metrics file."""
    payload = json.loads(path.read_text())
    return {
        entry["artifact"]: entry for entry in payload.get("results", [])
    }, payload


def compare_entries(
    baseline: dict[str, dict],
    fresh: dict[str, dict],
    tracked_for,
    threshold: float,
    strict: bool,
) -> list[str]:
    """Normalized-timing comparison of one section; returns failure labels."""
    failures: list[str] = []
    for key in sorted(set(fresh) - set(baseline)):
        # symmetric with the vanished-entry case below: a timing the
        # baseline has never seen is ungated, which is exactly when a
        # regression slips in — fail until the baseline is regenerated
        failures.append(
            f"{key} present in fresh run but absent from baseline "
            "(regenerate the baseline to start gating it)"
        )
        print(f"  {key}: absent from baseline [REGRESSED]")
    for key, base in sorted(baseline.items()):
        entry = fresh.get(key)
        if entry is None:
            # a vanished entry is an unmonitored timing, not a pass
            failures.append(f"{key} missing from fresh run")
            print(f"  {key}: missing from fresh run [REGRESSED]")
            continue
        for label, fast_field, naive_field in tracked_for(base):
            missing = [
                f"{role} field {field!r}"
                for role, source in (("baseline", base), ("fresh", entry))
                for field in (fast_field, naive_field)
                if field not in source
            ]
            if missing:
                # name the file and field instead of dying on a KeyError
                failures.append(f"{key}/{label}: {'; '.join(missing)}")
                print(f"  {key}/{label}: {'; '.join(missing)} [REGRESSED]")
                continue
            base_norm = base[fast_field] / max(base[naive_field], 1e-9)
            fresh_norm = entry[fast_field] / max(entry[naive_field], 1e-9)
            ratio = fresh_norm / max(base_norm, 1e-9)
            verdict = "REGRESSED" if ratio > threshold else "ok"
            print(
                f"  {key}/{label}: normalized {base_norm:.4f} -> "
                f"{fresh_norm:.4f} ({ratio:.2f}x, raw "
                f"{base[fast_field]:.2f} -> {entry[fast_field]:.2f} ms) "
                f"[{verdict}]"
            )
            if ratio > threshold:
                failures.append(
                    f"{key}/{label} normalized {ratio:.2f}x > "
                    f"threshold {threshold}x"
                )
            if strict:
                raw_ratio = entry[fast_field] / max(base[fast_field], 1e-9)
                if raw_ratio > threshold:
                    failures.append(
                        f"{key}/{label} raw wall-clock {raw_ratio:.2f}x > "
                        f"threshold {threshold}x"
                    )
    return failures


def check(baseline_path: pathlib.Path, fresh_path: pathlib.Path,
          threshold: float, strict: bool) -> int:
    for path, role in ((baseline_path, "baseline"), (fresh_path, "fresh")):
        if not path.exists():
            print(f"check_regression: missing {role} file {path}", file=sys.stderr)
            return 2
    baseline, base_payload = load_results(baseline_path)
    fresh, fresh_payload = load_results(fresh_path)
    if base_payload.get("smoke") != fresh_payload.get("smoke"):
        print(
            f"check_regression: mode mismatch (baseline smoke="
            f"{base_payload.get('smoke')}, fresh smoke="
            f"{fresh_payload.get('smoke')}); timings are not comparable",
            file=sys.stderr,
        )
        return 2

    failures = compare_entries(
        baseline, fresh, lambda _entry: TRACKED, threshold, strict
    )

    for section, tracked in sorted(SECTION_TRACKED.items()):
        base_section = base_payload.get(section)
        fresh_section = fresh_payload.get(section)
        if base_section is None:
            continue
        if fresh_section is None:
            failures.append(f"{section} section missing from fresh run")
            print(f"  {section}: section missing from fresh run [REGRESSED]")
            continue
        if base_section.get("smoke") != fresh_section.get("smoke"):
            print(
                f"check_regression: {section} mode mismatch (baseline smoke="
                f"{base_section.get('smoke')}, fresh smoke="
                f"{fresh_section.get('smoke')}); timings are not comparable",
                file=sys.stderr,
            )
            return 2
        failures += compare_entries(
            {entry["scenario"]: entry for entry in base_section["results"]},
            {entry["scenario"]: entry for entry in fresh_section["results"]},
            lambda entry, tracked=tracked: tracked.get(
                entry.get("scenario"), ()
            ),
            threshold,
            strict,
        )

    for section, scenario, field, cap in ABSOLUTE_CAPS:
        entries = {
            entry["scenario"]: entry
            for entry in (fresh_payload.get(section) or {}).get("results", [])
        }
        entry = entries.get(scenario)
        value = entry.get(field) if entry is not None else None
        if value is None:
            failures.append(f"{section}/{scenario}/{field} missing from fresh run")
            print(
                f"  {section}/{scenario}/{field}: missing from fresh run "
                "[REGRESSED]"
            )
            continue
        verdict = "REGRESSED" if value > cap else "ok"
        # three decimals: tight caps like 1.05 would otherwise print a
        # failing 1.054 as "1.05 > cap 1.05"
        print(
            f"  {section}/{scenario}/{field}: {value:.3f} (cap {cap}) "
            f"[{verdict}]"
        )
        if value > cap:
            failures.append(
                f"{section}/{scenario}/{field} measured {value:.3f} > cap {cap}"
            )

    if failures:
        print(
            f"check_regression: {len(failures)} timing(s) regressed more "
            f"than {threshold}x vs {baseline_path.name}:", file=sys.stderr,
        )
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"check_regression: no timing regressed more than {threshold}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--fresh", type=pathlib.Path, default=DEFAULT_FRESH)
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument(
        "--strict", action="store_true",
        help="also gate on raw wall-clock (same-machine comparisons only)",
    )
    args = parser.parse_args(argv)
    return check(args.baseline, args.fresh, args.threshold, args.strict)


if __name__ == "__main__":
    sys.exit(main())
