"""Durable run store — record I/O, warm-vs-cold sweeps, GC.

Times the persistence layer on three scenarios:

* ``records`` — raw segment throughput, batched write vs. batched read
  (the runtime's production paths: the runner writes via ``put_many``
  and reads via ``get_many``).  Each round does a batched ``put`` of N
  synthetic generations into a fresh store root, then a batched ``get``
  from a *fresh* store instance (offset-sorted positioned preads);
  ``get_over_put`` is the median of the per-round ratios, and the
  per-record timings are the per-side medians.  One GC pass over the
  last round's doubled (duplicated) store is timed once.  In full mode
  the offset-indexed read path must hold ``get_over_put <= 1.2`` (it
  used to be ~3.6× before the rewrite, when every get re-opened its
  segment and re-scanned);
* ``persist_read`` — the read path on its own: per-record ``get`` with
  the decoded-payload LRU disabled (every read hits disk), batched
  ``get_many`` (reads sorted by segment offset), and warm-LRU re-reads;
* ``sweep`` — the end-to-end promise: a small Table-1 configuration
  sweep run cold against an empty store, then re-run warm from a fresh
  store handle (as a new process would), asserting the warm pass
  performed **zero** generations via its recorded manifest.  One untimed
  sweep first takes the process's one-time imports and per-cell setup
  (calibration-table lookups, compiled references) out of the cold
  pass; both passes are best of N.

Timings land in ``benchmarks/output/persist.txt`` (human) and are
*merged* into ``BENCH_metrics.json`` under the ``persist`` key (machine),
next to the metrics-hot-path numbers; the CI regression gate compares
the hardware-normalized ratios (warm/cold, get/put) against the
committed baseline.  Run ``bench_metrics_hotpath.py`` first and this
bench after it (the CI order): the metrics bench rewrites the file
without any previous ``persist`` section, so stale persist timings can
never masquerade as fresh ones.  Set ``REPRO_BENCH_SMOKE=1`` (CI does)
for a smaller record count.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import tempfile
import time

from repro.core.experiments import run_configuration
from repro.llm.types import ModelUsage
from repro.persist import RunStore
from repro.runtime import RunConfig
from repro.runtime.units import Generation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_RECORDS = 256 if SMOKE else 2048
# put/get rounds, each into a fresh store root: a single round's ratio
# swings with one stray stall, the median of many does not
RECORDS_ROUNDS = 41
SWEEP = dict(
    models=["o3", "llama-3.3-70b", "claude-sonnet-4"],
    systems=["adios2", "wilkins", "henson"],
    epochs=2,
)
# best-of-N passes: a cold pass writes a fresh empty store, a warm pass
# re-reads the first cold store through a new handle
SWEEP_COLD_PASSES = 3
SWEEP_WARM_PASSES = 5


def _synthetic_generation(i: int) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/bench",
        completion=f"synthetic completion {i} " + "x" * 160,
        usage=ModelUsage(input_tokens=100, output_tokens=200),
        elapsed_s=0.0,
    )


def _put_then_get(root: pathlib.Path, gens: list[Generation]) -> tuple[float, float]:
    """One round into a fresh ``root``: (batched put s, batched get s)."""
    store = RunStore(root)
    started = time.perf_counter()
    store.put_generations(gens)
    put_s = time.perf_counter() - started
    store.close()

    with RunStore(root) as fresh:  # new handle: index rebuilt, reads on demand
        started = time.perf_counter()
        found = fresh.get_generations([gen.key for gen in gens])
        get_s = time.perf_counter() - started
    assert len(found) == N_RECORDS
    return put_s, get_s


def _bench_records(root: pathlib.Path) -> dict:
    gens = [_synthetic_generation(i) for i in range(N_RECORDS)]
    put_s, get_s, ratios = [], [], []
    for round_index in range(RECORDS_ROUNDS):
        put, get = _put_then_get(root / f"round{round_index}", gens)
        put_s.append(put)
        get_s.append(get)
        ratios.append(get / max(put, 1e-9))

    with RunStore(root / f"round{RECORDS_ROUNDS - 1}") as store:
        store.put_generations(gens)  # duplicate every record for GC to reclaim
        started = time.perf_counter()
        gc_stats = store.gc()
        gc_s = time.perf_counter() - started
        assert gc_stats.stale_dropped == N_RECORDS
        assert store.verify().clean

    return {
        "scenario": "records",
        "n_records": N_RECORDS,
        "rounds": RECORDS_ROUNDS,
        "put_ms_per_record": statistics.median(put_s) * 1000 / N_RECORDS,
        "get_ms_per_record": statistics.median(get_s) * 1000 / N_RECORDS,
        "get_over_put": statistics.median(ratios),
        "gc_ms": gc_s * 1000,
    }


def _bench_persist_read(root: pathlib.Path) -> dict:
    gens = [_synthetic_generation(i) for i in range(N_RECORDS)]
    with RunStore(root) as store:
        store.put_generations(gens)

    # cold reads, LRU off: every get is one positioned pread + checksum
    cold = RunStore(root, read_cache_entries=0)
    started = time.perf_counter()
    for gen in gens:
        assert cold.get_generation(gen.key) is not None
    get_s = time.perf_counter() - started
    assert cold.stats().read_lru_hits == 0

    # batched get_many from a fresh handle: reads sorted by offset
    batched = RunStore(root, read_cache_entries=0)
    started = time.perf_counter()
    found = batched.get_generations([gen.key for gen in gens])
    get_many_s = time.perf_counter() - started
    assert len(found) == N_RECORDS

    # warm LRU: second pass over an LRU sized to hold everything
    warm = RunStore(root, read_cache_entries=N_RECORDS)
    for gen in gens:
        warm.get_generation(gen.key)
    started = time.perf_counter()
    for gen in gens:
        assert warm.get_generation(gen.key) is not None
    warm_s = time.perf_counter() - started
    assert warm.stats().read_lru_hits == N_RECORDS

    get_ms = get_s * 1000 / N_RECORDS
    get_many_ms = get_many_s * 1000 / N_RECORDS
    warm_ms = warm_s * 1000 / N_RECORDS
    return {
        "scenario": "persist_read",
        "n_records": N_RECORDS,
        "get_ms_per_record": get_ms,
        "get_many_ms_per_record": get_many_ms,
        "warm_lru_ms_per_record": warm_ms,
        "get_many_over_get": get_many_ms / max(get_ms, 1e-9),
        "warm_lru_over_get": warm_ms / max(get_ms, 1e-9),
    }


def _sweep_ms(root: pathlib.Path) -> tuple[float, object]:
    """One SWEEP pass against the store at ``root``: (ms, its manifest)."""
    started = time.perf_counter()
    with RunStore(root) as store:
        run_configuration(**SWEEP, config=RunConfig(store=store))
        manifest = store.latest_manifest()
    return (time.perf_counter() - started) * 1000, manifest


def _bench_sweep(root: pathlib.Path) -> dict:
    # untimed pass: the first sweep in a process pays one-time imports and
    # per-cell setup (calibration-table lookups), which are not store work
    # and would make the cold/warm ratio track the import graph instead of
    # the store
    _sweep_ms(root / "warmup")

    cold_ms = min(
        _sweep_ms(root / f"cold{i}")[0] for i in range(SWEEP_COLD_PASSES)
    )
    warm_ms = float("inf")
    for _ in range(SWEEP_WARM_PASSES):  # each from a fresh store handle
        elapsed, manifest = _sweep_ms(root / "cold0")
        assert manifest.stats.generated == 0, "warm store pass must not generate"
        assert manifest.stats.scores_computed == 0, (
            "warm store pass must not score"
        )
        warm_ms = min(warm_ms, elapsed)

    return {
        "scenario": "sweep",
        "units": manifest.stats.total_units,
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "warm_over_cold": warm_ms / max(cold_ms, 1e-9),
    }


def _merge_results(results: list[dict]) -> None:
    """Attach the persist section to BENCH_metrics.json, keeping the rest."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["persist"] = {
        "benchmark": "persist",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def bench_persist(report):
    results = []
    lines = [
        f"durable run store ({'smoke' if SMOKE else 'full'} mode, "
        f"{N_RECORDS} records)",
        "",
    ]

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-persist-"))
    try:
        records = _bench_records(tmp / "records")
        results.append(records)
        lines.append(
            f"records   put {records['put_ms_per_record']:.3f} ms/rec   "
            f"get {records['get_ms_per_record']:.3f} ms/rec "
            f"(median x{records['get_over_put']:.2f} over "
            f"{RECORDS_ROUNDS} rounds)   "
            f"gc {records['gc_ms']:.1f} ms for {2 * N_RECORDS} records"
        )

        reads = _bench_persist_read(tmp / "reads")
        results.append(reads)
        lines.append(
            f"reads     get {reads['get_ms_per_record']:.4f} ms/rec   "
            f"get_many {reads['get_many_ms_per_record']:.4f} ms/rec "
            f"(x{reads['get_many_over_get']:.2f})   "
            f"warm-LRU {reads['warm_lru_ms_per_record']:.4f} ms/rec "
            f"(x{reads['warm_lru_over_get']:.2f})"
        )

        sweep = _bench_sweep(tmp / "sweep")
        results.append(sweep)
        lines.append(
            f"sweep     cold {sweep['cold_ms']:.1f} ms   warm "
            f"{sweep['warm_ms']:.1f} ms (x{sweep['warm_over_cold']:.2f}) "
            f"over {sweep['units']} units — warm pass: zero generations, "
            "zero scores (asserted via manifest)"
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    _merge_results(results)
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("persist", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) is report-only: shared runners add timing noise
        assert sweep["warm_over_cold"] < 1.0, (
            "a warm store pass (zero generations, zero scoring) should beat "
            f"the cold pass, got {sweep['warm_over_cold']:.2f}x"
        )
        assert records["get_over_put"] <= 1.2, (
            "an offset-indexed get (one pread + checksum) should cost no "
            "more than 1.2x an amortized put, got "
            f"{records['get_over_put']:.2f}x"
        )
        assert reads["warm_lru_over_get"] < 1.0, (
            "a warm-LRU read should beat a disk read, got "
            f"{reads['warm_lru_over_get']:.2f}x"
        )
