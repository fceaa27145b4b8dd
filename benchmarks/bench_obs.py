"""Observability layer — armed-tracing overhead and span hot-path cost.

Times the :mod:`repro.obs` machinery on two scenario groups:

* ``overhead`` — the cost of *arming* tracing: a small Table-1
  configuration sweep run bare vs. under ``tracing()`` (every run
  opening a trace, every phase recording identified spans).  Each round
  runs the sweep once each way, alternating which goes first, and
  ``obs_over_baseline`` is the median of the per-round ratios.  The
  regression gate caps it at 1.05: armed tracing must stay within 5%
  of the bare runner, so the round count (the same in smoke and full
  mode) keeps one tree's spread across runs near 2%.  The bench also
  asserts the armed grid is bit-identical to the bare one — tracing
  must never perturb results;
* ``span_hotpath`` — per-call cost of the shared :func:`repro.obs.span`
  entry point in its three states: disarmed (the zero-cost null span),
  armed-but-idle (a tracer installed, no trace open — must stay on the
  fast path), and tracing (a trace open, every call allocating a
  :class:`SpanRecord`).  Informational: the first two are the numbers
  that ride on *every* run, traced or not.

Timings land in ``benchmarks/output/obs.txt`` (human) and are merged
into ``BENCH_metrics.json`` under the ``obs`` key (machine).  Run after
``bench_metrics_hotpath.py`` (the CI order): the metrics bench rewrites
the file without any previous ``obs`` section.  Set
``REPRO_BENCH_SMOKE=1`` (CI does) for fewer span-hotpath calls.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro import obs
from repro.core.experiments import run_configuration

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

# many paired rounds: one tree's median ratio spreads ~2% across runs
OVERHEAD_ROUNDS = 121
SWEEP = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"],
             epochs=2)
UNITS = 8  # 2 models x 2 systems x 2 epochs
SPAN_CALLS = 20_000 if SMOKE else 100_000


def _timed_sweep(armed: bool) -> tuple[float, object]:
    if not armed:
        started = time.perf_counter()
        grid = run_configuration(**SWEEP)
        return time.perf_counter() - started, grid
    with obs.tracing():
        started = time.perf_counter()
        grid = run_configuration(**SWEEP)
        return time.perf_counter() - started, grid


def _bench_overhead() -> dict:
    _timed_sweep(False)  # warmup: pay imports and cell setup once
    baseline_s, armed_s, ratios = [], [], []
    bare_grid = armed_grid = None
    for round_index in range(OVERHEAD_ROUNDS):
        # alternate which side runs first so drift hits both equally
        if round_index % 2:
            armed, armed_grid = _timed_sweep(True)
            bare, bare_grid = _timed_sweep(False)
        else:
            bare, bare_grid = _timed_sweep(False)
            armed, armed_grid = _timed_sweep(True)
        baseline_s.append(bare)
        armed_s.append(armed)
        ratios.append(armed / bare)
    assert armed_grid.cells == bare_grid.cells, (
        "grid produced under armed tracing diverged from the bare grid"
    )
    return {
        "scenario": "overhead",
        "units": UNITS,
        "rounds": OVERHEAD_ROUNDS,
        "baseline_ms": statistics.median(baseline_s) * 1000,
        "armed_ms": statistics.median(armed_s) * 1000,
        "obs_over_baseline": statistics.median(ratios),
    }


def _time_span_calls() -> float:
    """Best-of-3 ns per ``span(...)`` enter/exit in the current state."""
    span = obs.span
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(SPAN_CALLS):
            with span("bench"):
                pass
        best = min(best, time.perf_counter() - started)
    return best / SPAN_CALLS * 1e9


def _bench_span_hotpath() -> dict:
    disarmed_ns = _time_span_calls()
    with obs.tracing() as tracer:
        idle_ns = _time_span_calls()  # tracer installed, no trace open
        handle = tracer.begin_trace("bench")
        # cap far above SPAN_CALLS so the tracing path never hits the
        # drop branch and we time real SpanRecord appends
        tracer.max_spans = SPAN_CALLS * 4
        tracing_ns = _time_span_calls()
        tracer.end_trace(handle)
    return {
        "scenario": "span_hotpath",
        "calls": SPAN_CALLS,
        "disarmed_ns_per_call": disarmed_ns,
        "armed_idle_ns_per_call": idle_ns,
        "tracing_ns_per_call": tracing_ns,
    }


def _merge_results(results: list[dict]) -> None:
    """Attach the obs section to BENCH_metrics.json, keeping the rest."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["obs"] = {
        "benchmark": "obs",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def bench_obs(report):
    lines = [
        f"observability layer ({'smoke' if SMOKE else 'full'} mode, "
        f"{UNITS}-unit sweep, median of {OVERHEAD_ROUNDS} paired rounds)",
        "",
    ]

    overhead = _bench_overhead()
    lines.append(
        f"overhead      bare {overhead['baseline_ms']:.1f} ms   "
        f"traced {overhead['armed_ms']:.1f} ms "
        f"(x{overhead['obs_over_baseline']:.3f}, cap 1.05) — "
        "grids bit-identical"
    )

    hotpath = _bench_span_hotpath()
    lines.append(
        f"span hotpath  disarmed {hotpath['disarmed_ns_per_call']:.0f} ns   "
        f"armed-idle {hotpath['armed_idle_ns_per_call']:.0f} ns   "
        f"tracing {hotpath['tracing_ns_per_call']:.0f} ns per call"
    )

    _merge_results([overhead, hotpath])
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("obs", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) leaves wall-clock gating to check_regression.py's
        # hardware-normalized comparison; full mode asserts locally too
        assert overhead["obs_over_baseline"] <= 1.05, (
            "armed tracing must stay within 5% of the bare runner, "
            f"got x{overhead['obs_over_baseline']:.3f}"
        )
