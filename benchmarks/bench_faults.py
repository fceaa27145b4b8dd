"""Fault-tolerance layer — no-fault overhead and injected-fault sweeps.

Times the :class:`repro.runtime.FaultPolicy` machinery on two scenario
groups:

* ``overhead`` — the cost of *arming* fault tolerance when nothing
  faults: a small Table-1 configuration sweep run with ``faults=None``
  vs. an isolating :class:`FaultPolicy` (retry + deadline + quarantine
  bookkeeping armed, zero faults injected), alternating best-of-N so
  machine drift hits both sides equally.  The regression gate caps
  ``policy_over_baseline`` at 1.05: the fault layer must stay within
  5% of the bare runner when healthy;
* ``fault_rates_{serial,threads}`` — the same sweep under a
  deterministic :class:`repro.testing.FaultPlan` injecting transient
  provider faults at 0%, 10% and 30% of requests (single-strike, so a
  healing retry policy absorbs every fault), per executor, the rates
  interleaved inside each repeat and timed best-of-N per rate, so
  ``rate30_over_rate0`` compares passes run side by side rather than
  seconds apart.  Reports the wall-clock ladder plus the measured retry
  amplification (provider calls / plan units) at 30%, and asserts the
  30% grid is bit-identical to the fault-free one — the bench doubles
  as an end-to-end determinism check.

Timings land in ``benchmarks/output/faults.txt`` (human) and are merged
into ``BENCH_metrics.json`` under the ``faults`` key (machine).  Run
after ``bench_metrics_hotpath.py`` (the CI order): the metrics bench
rewrites the file without any previous ``faults`` section.  Set
``REPRO_BENCH_SMOKE=1`` (CI does) for fewer repeats.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.experiments import run_configuration
from repro.runtime import (
    FaultPolicy,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    ThreadExecutor,
)
from repro.testing import FaultPlan, faulty_models

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REPEATS = 3 if SMOKE else 5
SWEEP = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"],
             epochs=2)
UNITS = 8  # 2 models x 2 systems x 2 epochs
SIM_MODELS = [f"sim/{m}" for m in SWEEP["models"]]
# seed 0 strikes 2/8 requests at 10% and 4/8 at 30% on this sweep (probed;
# rolls are per-key, so the 10% strike set is a subset of the 30% one)
FAULT_SEED = 0
FAULT_RATES = (0.0, 0.1, 0.3)

EXECUTORS = {
    "serial": SerialExecutor,
    "threads": lambda: ThreadExecutor(max_concurrency=6),
}

# retries absorb every single-strike transient without sleeping
HEALING = FaultPolicy(retry=RetryPolicy(max_attempts=3, base_delay=0.0))
# the full production surface, armed but never triggered
ARMED = FaultPolicy(
    retry=RetryPolicy(max_attempts=3, base_delay=0.0),
    unit_deadline_s=60.0,
    on_failure="isolate",
)


def _timed_sweep(make_executor, faults=None) -> float:
    started = time.perf_counter()
    config = RunConfig(executor=make_executor(), faults=faults)
    run_configuration(**SWEEP, config=config)
    return time.perf_counter() - started


def _bench_overhead() -> dict:
    _timed_sweep(SerialExecutor)  # warmup: pay imports and cell setup once
    baseline_s = policy_s = float("inf")
    for _ in range(REPEATS):  # alternate so drift hits both sides equally
        baseline_s = min(baseline_s, _timed_sweep(SerialExecutor))
        policy_s = min(policy_s, _timed_sweep(SerialExecutor, faults=ARMED))
    return {
        "scenario": "overhead",
        "units": UNITS,
        "repeats": REPEATS,
        "baseline_ms": baseline_s * 1000,
        "policy_ms": policy_s * 1000,
        "policy_over_baseline": policy_s / max(baseline_s, 1e-9),
    }


def _bench_fault_rates(name: str, make_executor) -> dict:
    result: dict = {"scenario": f"fault_rates_{name}", "units": UNITS,
                    "repeats": REPEATS, "fault_seed": FAULT_SEED}
    grids: dict[float, object] = {}
    best_s = dict.fromkeys(FAULT_RATES, float("inf"))
    injected: dict[float, int] = {}
    calls: dict[float, int] = {}
    for _ in range(REPEATS):  # interleave the rates so drift hits each equally
        for rate in FAULT_RATES:
            # fresh context per pass: strike schedules are consumed, so a
            # reused wrapper would only fault on its first run
            plan = FaultPlan(seed=FAULT_SEED, transient_rate=rate,
                             transient_times=1)
            with faulty_models(SIM_MODELS, plan) as wrapped:
                started = time.perf_counter()
                grids[rate] = run_configuration(
                    **SWEEP,
                    config=RunConfig(executor=make_executor(), faults=HEALING),
                )
                best_s[rate] = min(best_s[rate], time.perf_counter() - started)
                injected[rate] = sum(p.injected_total for p in wrapped.values())
                calls[rate] = sum(p.calls for p in wrapped.values())
    for rate in FAULT_RATES:
        pct = int(rate * 100)
        result[f"rate{pct}_ms"] = best_s[rate] * 1000
        result[f"rate{pct}_injected"] = injected[rate]
    result["retry_amplification"] = calls[FAULT_RATES[-1]] / UNITS
    assert result["rate10_injected"] > 0 and result["rate30_injected"] > 0, (
        "fault seed never fired on this sweep; re-probe FAULT_SEED"
    )
    assert grids[0.3].cells == grids[0.0].cells, (
        "healed 30%-fault grid diverged from the fault-free grid"
    )
    result["rate30_over_rate0"] = (
        result["rate30_ms"] / max(result["rate0_ms"], 1e-9)
    )
    return result


def _merge_results(results: list[dict]) -> None:
    """Attach the faults section to BENCH_metrics.json, keeping the rest."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["faults"] = {
        "benchmark": "faults",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def bench_faults(report):
    results = []
    lines = [
        f"fault-tolerance layer ({'smoke' if SMOKE else 'full'} mode, "
        f"{UNITS}-unit sweep, best of {REPEATS})",
        "",
    ]

    overhead = _bench_overhead()
    results.append(overhead)
    lines.append(
        f"overhead   bare {overhead['baseline_ms']:.1f} ms   armed policy "
        f"{overhead['policy_ms']:.1f} ms "
        f"(x{overhead['policy_over_baseline']:.3f}, cap 1.05)"
    )

    for name, make_executor in EXECUTORS.items():
        rates = _bench_fault_rates(name, make_executor)
        results.append(rates)
        lines.append(
            f"{name:<9}  0% {rates['rate0_ms']:.1f} ms   "
            f"10% {rates['rate10_ms']:.1f} ms "
            f"({rates['rate10_injected']} faults)   "
            f"30% {rates['rate30_ms']:.1f} ms "
            f"({rates['rate30_injected']} faults, "
            f"x{rates['retry_amplification']:.2f} calls/unit) — "
            "healed grids bit-identical"
        )

    _merge_results(results)
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("faults", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) leaves wall-clock gating to check_regression.py's
        # hardware-normalized comparison; full mode asserts locally too
        assert overhead["policy_over_baseline"] <= 1.05, (
            "an armed-but-idle fault policy must stay within 5% of the "
            f"bare runner, got x{overhead['policy_over_baseline']:.3f}"
        )
