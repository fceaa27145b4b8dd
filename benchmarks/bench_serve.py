"""Networked store service — request latency, throughput, remote-vs-local.

Boots a real :class:`repro.serve.StoreServer` (TCP on a loopback
ephemeral port, 2 shards) inside this process via
:class:`repro.testing.InProcessServer` and drives it with the
production :class:`repro.serve.RemoteRunStore` client on three
scenarios:

* ``remote_records`` — batched ``put_generations`` then, from a fresh
  client, batched ``get_generations`` of every record, against the same
  records read through a *local* ``RunStore.get_generations`` on the
  same machine in the same run.  Each round does one remote and one
  local read, alternating which goes first, and
  ``remote_get_over_local_get`` is the median of the per-round ratios:
  the hardware-normalized price of the wire (frame codec + loopback
  socket over the local pread read path).  The per-record timings are
  the per-side medians.  The regression gate caps the ratio — the cap
  is generous (loopback latency varies across runners) but a broken
  pipelining or pooling path overshoots it by an order of magnitude;
* ``request_latency`` — single in-flight ``ping`` round trips;
  ``p50_ms``/``p99_ms`` are the per-request latency distribution and
  ``req_per_s`` the sequential request rate;
* ``pipelined_throughput`` — ``get_many`` with all keys in flight as
  pipelined chunk frames; ``req_per_s`` counts frames, showing what
  pipelining buys over one-at-a-time requests.

Results land in ``benchmarks/output/serve.txt`` (human) and merge into
``BENCH_metrics.json`` under the ``serve`` key (machine), gated by
``check_regression.py`` like every other section.  Run after
``bench_metrics_hotpath.py`` (the CI order).  ``REPRO_BENCH_SMOKE=1``
shrinks the record count.
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
from repro.persist import RunStore
from repro.runtime.units import Generation
from repro.serve import RemoteRunStore
from repro.testing import InProcessServer

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_RECORDS = 256 if SMOKE else 2048
N_PINGS = 200 if SMOKE else 1000
# paired remote/local read rounds: one read of each swings with a stray
# stall or scheduler hiccup, the median of many paired ratios does not
RECORDS_ROUNDS = 41


def _synthetic_generation(i: int) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/bench",
        completion=f"synthetic completion {i} " + "x" * 160,
        usage=ModelUsage(input_tokens=100, output_tokens=200),
        elapsed_s=0.0,
    )


def _bench_remote_records(server: InProcessServer, local_root: pathlib.Path) -> dict:
    gens = [_synthetic_generation(i) for i in range(N_RECORDS)]
    keys = [gen.key for gen in gens]
    url = f"tcp://127.0.0.1:{server.port}"

    with RemoteRunStore(url, ("tcp", ("127.0.0.1", server.port))) as remote:
        started = time.perf_counter()
        remote.put_generations(gens)
        put_s = time.perf_counter() - started

    # local reference on the same records, same machine, same run
    with RunStore(local_root) as local:
        local.put_generations(gens)

    def local_read() -> float:
        with RunStore(local_root, read_cache_entries=0) as local:
            started = time.perf_counter()
            found = local.get_generations(keys)
            elapsed = time.perf_counter() - started
        assert len(found) == N_RECORDS
        return elapsed

    def remote_read() -> float:
        # fresh client: pooled connections start cold, like a new process
        with RemoteRunStore(url, ("tcp", ("127.0.0.1", server.port))) as remote:
            started = time.perf_counter()
            found = remote.get_generations(keys)
            elapsed = time.perf_counter() - started
        assert len(found) == N_RECORDS
        return elapsed

    remote_s, local_s, ratios = [], [], []
    for round_index in range(RECORDS_ROUNDS):
        # alternate which side reads first so drift hits both equally
        if round_index % 2:
            local = local_read()
            remote = remote_read()
        else:
            remote = remote_read()
            local = local_read()
        remote_s.append(remote)
        local_s.append(local)
        ratios.append(remote / max(local, 1e-9))

    return {
        "scenario": "remote_records",
        "n_records": N_RECORDS,
        "rounds": RECORDS_ROUNDS,
        "remote_put_ms_per_record": put_s * 1000 / N_RECORDS,
        "remote_get_many_ms_per_record": (
            statistics.median(remote_s) * 1000 / N_RECORDS
        ),
        "local_get_many_ms_per_record": (
            statistics.median(local_s) * 1000 / N_RECORDS
        ),
        "remote_get_over_local_get": statistics.median(ratios),
    }


def _bench_request_latency(server: InProcessServer) -> dict:
    with RemoteRunStore(
        f"tcp://127.0.0.1:{server.port}", ("tcp", ("127.0.0.1", server.port))
    ) as remote:
        remote.ping()  # connect outside the timed window
        samples = []
        started_all = time.perf_counter()
        for _ in range(N_PINGS):
            started = time.perf_counter()
            remote.ping()
            samples.append((time.perf_counter() - started) * 1000)
        total_s = time.perf_counter() - started_all
    samples.sort()
    return {
        "scenario": "request_latency",
        "n_requests": N_PINGS,
        "p50_ms": statistics.median(samples),
        "p99_ms": samples[min(len(samples) - 1, int(len(samples) * 0.99))],
        "req_per_s": N_PINGS / max(total_s, 1e-9),
    }


def _bench_pipelined_throughput(server: InProcessServer) -> dict:
    from repro.serve.client import CHUNK

    keys = [f"{i:064x}" for i in range(N_RECORDS)]
    n_frames = (len(keys) + CHUNK - 1) // CHUNK
    with RemoteRunStore(
        f"tcp://127.0.0.1:{server.port}", ("tcp", ("127.0.0.1", server.port))
    ) as remote:
        remote.ping()
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            found = remote.get_generations(keys)
            best = min(best, time.perf_counter() - started)
        assert len(found) == N_RECORDS
    return {
        "scenario": "pipelined_throughput",
        "n_records": N_RECORDS,
        "frames": n_frames,
        "get_many_ms": best * 1000,
        "req_per_s": n_frames / max(best, 1e-9),
        "records_per_s": N_RECORDS / max(best, 1e-9),
    }


def _merge_results(results: list[dict]) -> None:
    """Attach the serve section to BENCH_metrics.json, keeping the rest."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["serve"] = {
        "benchmark": "serve",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def bench_serve(report):
    results = []
    lines = [
        f"networked store service ({'smoke' if SMOKE else 'full'} mode, "
        f"{N_RECORDS} records, {N_PINGS} pings)",
        "",
    ]

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    server = InProcessServer(tmp / "served", shards=2)
    try:
        records = _bench_remote_records(server, tmp / "local")
        results.append(records)
        lines.append(
            f"records   remote get_many "
            f"{records['remote_get_many_ms_per_record']:.4f} ms/rec   local "
            f"{records['local_get_many_ms_per_record']:.4f} ms/rec "
            f"(median x{records['remote_get_over_local_get']:.2f} over "
            f"{RECORDS_ROUNDS} paired rounds)   remote put "
            f"{records['remote_put_ms_per_record']:.4f} ms/rec"
        )

        latency = _bench_request_latency(server)
        results.append(latency)
        lines.append(
            f"latency   p50 {latency['p50_ms']:.3f} ms   p99 "
            f"{latency['p99_ms']:.3f} ms   {latency['req_per_s']:.0f} req/s "
            "(single in-flight pings)"
        )

        pipelined = _bench_pipelined_throughput(server)
        results.append(pipelined)
        lines.append(
            f"pipeline  {pipelined['frames']} frame(s) in "
            f"{pipelined['get_many_ms']:.1f} ms   "
            f"{pipelined['records_per_s']:.0f} records/s "
            "(all chunks in flight)"
        )
    finally:
        server.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    _merge_results(results)
    lines += ["", f"[machine-readable results merged into {RESULTS_PATH}]"]
    report("serve", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) is report-only: shared runners add timing noise
        assert records["remote_get_over_local_get"] < 100.0, (
            "a pipelined loopback get_many should stay within two orders "
            "of magnitude of the local pread path, got "
            f"{records['remote_get_over_local_get']:.1f}x"
        )
        assert latency["p50_ms"] < 5.0, (
            f"a loopback ping should take < 5 ms, got {latency['p50_ms']:.2f}"
        )
