"""Resilience layer — what the breaker costs when nothing is failing.

The circuit breaker's whole bargain is "pay a lookup per request,
save a connect timeout per outage".  This bench prices both halves
against real servers (the :class:`repro.testing.InProcessServer`
harness on loopback TCP):

* ``overhead`` — the same batched ``get_generations`` through a
  single-replica :class:`ReplicatedRunStore` (breaker armed, hedging
  and spill off) and through the bare :class:`RemoteRunStore` it
  wraps.  Each round reads once through each, alternating which goes
  first, and ``breaker_over_remote`` is the median of the per-round
  ratios: the armed-but-idle toll.  The regression gate caps it at
  1.05x — the resilience layer must be free when replicas are healthy
  — so the round count and size (the same in smoke and full mode) keep
  one tree's spread across runs near 2%, well inside that cap;
* ``failover`` — two replicas, then the preferred one dies.
  ``failover_ms`` is the one-off price of discovering the corpse
  (retries + breaker trip); ``open_breaker_ms_per_read`` is the
  steady-state read cost afterwards, which the open breaker should
  hold near the healthy-path cost (``open_breaker_over_healthy``,
  capped generously — it routes straight to the survivor).

Results land in ``benchmarks/output/resilience.txt`` (human) and merge
into ``BENCH_metrics.json`` under the ``resilience`` key (machine),
gated by ``check_regression.py``.  ``REPRO_BENCH_SMOKE=1`` shrinks the
failover record counts for CI.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import tempfile
import time

from repro.llm.types import ModelUsage
from repro.runtime import RetryPolicy
from repro.runtime.units import Generation
from repro.serve import ReplicatedRunStore, open_store
from repro.testing import InProcessServer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_RECORDS = 192 if SMOKE else 1024
N_ROUNDS = 5
# many small paired rounds: their median ratio resolves a 1% toll
OVERHEAD_RECORDS = 256
OVERHEAD_ROUNDS = 121
N_OPEN_READS = 20 if SMOKE else 100

RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


def _synthetic_generation(i: int) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/bench",
        completion=f"synthetic completion {i} " + "x" * 160,
        usage=ModelUsage(input_tokens=100, output_tokens=200),
        elapsed_s=0.0,
    )


def _bench_overhead(tmp: pathlib.Path) -> dict:
    gens = [_synthetic_generation(i) for i in range(OVERHEAD_RECORDS)]
    keys = [gen.key for gen in gens]

    def timed_read(store) -> float:
        started = time.perf_counter()
        found = store.get_generations(keys)
        elapsed = time.perf_counter() - started
        assert len(found) == OVERHEAD_RECORDS
        return elapsed

    with InProcessServer(tmp / "overhead") as server:
        with open_store(server.url(), retry=RETRY) as seed:
            seed.put_generations(gens)
        # a one-replica set: same wire path plus the armed breaker
        with open_store(server.url(), retry=RETRY) as bare, ReplicatedRunStore(
            server.url(), [server.address()], retry=RETRY
        ) as wrapped:
            # connect and warm both pools before anything is timed
            timed_read(bare)
            timed_read(wrapped)
            bare_s, replicated_s, ratios = [], [], []
            for round_index in range(OVERHEAD_ROUNDS):
                if round_index % 2:
                    replicated = timed_read(wrapped)
                    plain = timed_read(bare)
                else:
                    plain = timed_read(bare)
                    replicated = timed_read(wrapped)
                bare_s.append(plain)
                replicated_s.append(replicated)
                ratios.append(replicated / plain)

    return {
        "scenario": "overhead",
        "n_records": OVERHEAD_RECORDS,
        "n_rounds": OVERHEAD_ROUNDS,
        "bare_get_ms_per_record": statistics.median(bare_s) * 1000 / OVERHEAD_RECORDS,
        "replicated_get_ms_per_record": (
            statistics.median(replicated_s) * 1000 / OVERHEAD_RECORDS
        ),
        "breaker_over_remote": statistics.median(ratios),
    }


def _bench_failover(tmp: pathlib.Path) -> dict:
    gens = [_synthetic_generation(i) for i in range(N_RECORDS)]
    keys = [gen.key for gen in gens]
    probe = keys[:8]
    primary = InProcessServer(tmp / "replica-a")
    secondary = InProcessServer(tmp / "replica-b")
    try:
        url = f"{primary.url()},{secondary.url()}"
        with open_store(url, retry=RETRY) as store:
            store.put_generations(gens)

            healthy_s = float("inf")
            for _ in range(N_ROUNDS):
                started = time.perf_counter()
                assert len(store.get_generations(probe)) == len(probe)
                healthy_s = min(healthy_s, time.perf_counter() - started)

            primary.stop()
            # one-off: stale sockets fail, retries cycle, breaker trips
            started = time.perf_counter()
            assert len(store.get_generations(probe)) == len(probe)
            failover_s = time.perf_counter() - started

            # steady state: the open breaker skips the corpse entirely
            started = time.perf_counter()
            for _ in range(N_OPEN_READS):
                assert len(store.get_generations(probe)) == len(probe)
            open_s = (time.perf_counter() - started) / N_OPEN_READS
    finally:
        primary.stop()
        secondary.stop()

    healthy_ms = healthy_s * 1000
    open_ms = open_s * 1000
    return {
        "scenario": "failover",
        "n_records": len(probe),
        "healthy_ms_per_read": healthy_ms,
        "failover_ms": failover_s * 1000,
        "open_breaker_ms_per_read": open_ms,
        "open_breaker_over_healthy": open_ms / max(healthy_ms, 1e-9),
    }


def _merge_results(results: list[dict]) -> None:
    """Attach the resilience section to BENCH_metrics.json."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["resilience"] = {
        "benchmark": "resilience",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def bench_resilience(report):
    lines = [
        f"resilience layer ({'smoke' if SMOKE else 'full'} mode)",
        "",
    ]
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-resilience-"))
    try:
        overhead = _bench_overhead(tmp)
        lines.append(
            f"overhead  {OVERHEAD_ROUNDS} paired rounds of "
            f"{OVERHEAD_RECORDS} records: replicated get "
            f"{overhead['replicated_get_ms_per_record']:.4f} ms/rec   bare "
            f"{overhead['bare_get_ms_per_record']:.4f} ms/rec "
            f"(x{overhead['breaker_over_remote']:.3f} armed-but-idle)"
        )
        failover = _bench_failover(tmp)
        lines.append(
            f"failover  healthy read {failover['healthy_ms_per_read']:.3f} ms"
            f"   first-after-death {failover['failover_ms']:.1f} ms   "
            f"open-breaker read {failover['open_breaker_ms_per_read']:.3f} ms"
            f" (x{failover['open_breaker_over_healthy']:.2f})"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [overhead, failover]
    _merge_results(results)
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("resilience", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) leaves the verdict to check_regression.py's
        # caps: shared runners add timing noise
        assert overhead["breaker_over_remote"] < 1.05, (
            "an armed-but-idle breaker should cost under 5% over the bare "
            f"remote path, got {overhead['breaker_over_remote']:.3f}x"
        )
        assert failover["open_breaker_over_healthy"] < 3.0, (
            "reads with the dead replica's breaker open should stay near "
            "the healthy-path cost, got "
            f"{failover['open_breaker_over_healthy']:.2f}x"
        )
