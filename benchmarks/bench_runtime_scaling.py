"""Runtime scaling — executors, schedulers and result cache on a fixed sweep.

Times the Table 1-shaped sweep (4 models × 3 systems × 2 epochs = 24
generations) under every executor, twice over:

* a **cold-cache serial sweep** against freshly constructed simulated
  models, so the timing includes per-cell calibration — the number the
  compiled-metrics engine is measured by (reported for the perf
  trajectory);
* against the **offline simulator** (CPU-bound; threads mostly overlap
  its numpy sections under the GIL, so gains are modest) — reported for
  the perf trajectory, not asserted;
* against a **latency provider** that wraps each simulated model with a
  fixed per-call delay, the regime a real API endpoint lives in — here
  the threaded executor must be ≥ 2× faster than serial, and the async
  executor must be at least as fast as the threaded one (event-loop
  concurrency is a cheap integer, so it runs more calls in flight than
  a same-cost thread pool); the batched executor pays the provider
  round-trip once per *model group* instead of once per call;
* and with a **warm result cache**, which must skip the model layer
  entirely (zero new generations) while producing identical results.

A section compares plan-order dispatch against the adaptive
longest-expected-unit-first scheduler on a heterogeneous-latency sweep
(one slow provider, three fast ones) — the regime where dispatch order
shapes the makespan tail.

Numbers land in ``benchmarks/output/runtime_scaling.txt`` so future PRs
have a perf trajectory to compare against.
"""

from __future__ import annotations

import time

from repro.core.experiments.configuration import (
    CONFIGURATION_SYSTEMS,
    configuration_task,
)
from repro.data import MODELS
from repro.llm.api import get_model, register_model
from repro.runtime import (
    AdaptiveScheduler,
    AsyncExecutor,
    BatchingExecutor,
    InMemoryResultCache,
    Plan,
    RunConfig,
    SerialExecutor,
    ThreadedExecutor,
    run,
)

EPOCHS = 2
API_LATENCY_S = 0.15  # per-call delay of the simulated network endpoint
SLOW_MODEL_LATENCY_S = 0.6  # the straggler provider of the hetero sweep
FAST_MODEL_LATENCY_S = 0.02


class _LatencyProvider:
    """A simulated-model wrapper that costs a fixed delay per call.

    The batched entry point pays the delay **once per batch** — the
    whole point of a real batch endpoint is amortizing the round-trip —
    then defers to the inner model's native ``generate_batch``.
    """

    def __init__(self, inner, delay: float, namespace: str = "apisim") -> None:
        self._inner = inner
        self._delay = delay
        self.name = f"{namespace}/{inner.name.split('/', 1)[1]}"

    def generate(self, messages, config):
        time.sleep(self._delay)
        return self._inner.generate(messages, config)

    def generate_batch(self, requests):
        time.sleep(self._delay)  # one round-trip for the whole group
        return self._inner.generate_batch(requests)


def _register_latency_models() -> None:
    for model in MODELS:
        inner = get_model(f"sim/{model}").provider
        register_model(
            f"apisim/{model}",
            lambda inner=inner: _LatencyProvider(inner, API_LATENCY_S),
        )


def _register_hetero_models() -> None:
    """One slow provider (o3) among three fast ones."""
    for model in MODELS:
        inner = get_model(f"sim/{model}").provider
        delay = SLOW_MODEL_LATENCY_S if model == "o3" else FAST_MODEL_LATENCY_S
        register_model(
            f"hetsim/{model}",
            lambda inner=inner, delay=delay: _LatencyProvider(
                inner, delay, namespace="hetsim"
            ),
        )


def _register_cold_models() -> None:
    """Fresh SimulatedModel instances: nothing calibrated, nothing compiled."""
    from repro.llm.profiles import ALL_PROFILES
    from repro.llm.simulated import SimulatedModel

    for model in MODELS:
        register_model(
            f"coldsim/{model}",
            lambda m=model: SimulatedModel(ALL_PROFILES[m]()),
        )


def _sweep_plan(namespace: str, models=MODELS) -> Plan:
    plan = Plan(f"scaling/{namespace}")
    for system in CONFIGURATION_SYSTEMS:
        task = configuration_task(system)
        for model in models:
            plan.add_eval(task, f"{namespace}/{model}", epochs=EPOCHS)
    return plan


def _timed(namespace: str, executor, cache=None, scheduler=None, models=MODELS):
    plan = _sweep_plan(namespace, models=models)
    started = time.perf_counter()
    config = RunConfig(executor=executor, cache=cache, scheduler=scheduler)
    outcome = run(plan, config=config)
    return time.perf_counter() - started, outcome


def bench_runtime_scaling(report):
    _register_latency_models()
    # cold-cache serial sweep: freshly registered models, so the timing
    # includes every per-cell calibration (the metrics-engine hot path)
    _register_cold_models()
    cold_serial_time, _ = _timed("coldsim", SerialExecutor())

    # warm the per-cell calibration caches so every timing below measures
    # steady-state generation, not one-off calibration
    run(_sweep_plan("sim"))

    executors = [
        ("serial", SerialExecutor()),
        ("threads-8", ThreadedExecutor(8)),
        ("async-16", AsyncExecutor(16)),
        ("batched", BatchingExecutor(4)),
    ]

    lines = [
        "runtime scaling — 4 models x 3 systems x 2 epochs (24 generations)",
        f"simulated API latency: {API_LATENCY_S * 1000:.0f} ms/call "
        "(batched: one per model group)",
        f"cold-cache serial sweep (incl. calibration): "
        f"{cold_serial_time * 1000:.0f} ms",
        "",
        f"{'executor':<12} {'sim (CPU-bound)':>16} {'apisim (latency)':>17} "
        f"{'apisim warm cache':>18}",
    ]
    sim_times: dict[str, float] = {}
    api_times: dict[str, float] = {}
    baseline_results = None
    for label, executor in executors:
        sim_times[label], _ = _timed("sim", executor)

        cache = InMemoryResultCache()
        api_times[label], cold = _timed("apisim", executor, cache=cache)
        warm_time, warm = _timed("apisim", executor, cache=cache)

        assert cold.stats.generated == 24 - cold.stats.deduplicated
        assert warm.stats.generated == 0, "warm cache must skip the model layer"
        assert warm.stats.cache_hits == warm.stats.total_units - warm.stats.deduplicated
        scores = sorted(
            (uid, r.score["bleu"]) for uid, r in warm.results.items()
        )
        if baseline_results is None:
            baseline_results = scores
        else:
            assert scores == baseline_results, (
                f"{label} results differ from serial"
            )

        lines.append(
            f"{label:<12} {sim_times[label] * 1000:>13.0f} ms "
            f"{api_times[label] * 1000:>14.0f} ms {warm_time * 1000:>15.0f} ms"
        )

    threaded_speedup = api_times["serial"] / api_times["threads-8"]
    async_speedup = api_times["serial"] / api_times["async-16"]
    batched_speedup = api_times["serial"] / api_times["batched"]
    lines += [
        "",
        f"latency-bound speedup vs serial: threads-8 {threaded_speedup:.1f}x, "
        f"async-16 {async_speedup:.1f}x, batched {batched_speedup:.1f}x",
        f"CPU-bound (GIL) speedup vs serial: threads-8 "
        f"{sim_times['serial'] / sim_times['threads-8']:.1f}x",
    ]

    # adaptive scheduling: a straggler provider among fast ones; the
    # longest-expected-first order is learned online, so the first
    # adaptive run doubles as training and the second one is measured
    _register_hetero_models()
    hetero_models = [m for m in MODELS if m != "o3"] + ["o3"]  # straggler last
    plan_time, _ = _timed(
        "hetsim", ThreadedExecutor(4), models=hetero_models
    )
    scheduler = AdaptiveScheduler()
    _timed("hetsim", ThreadedExecutor(4), scheduler=scheduler,
           models=hetero_models)  # training pass
    adaptive_time, _ = _timed(
        "hetsim", ThreadedExecutor(4), scheduler=scheduler,
        models=hetero_models,
    )
    lines += [
        "",
        "adaptive scheduling — hetero latency "
        f"(o3 {SLOW_MODEL_LATENCY_S * 1000:.0f} ms/call, others "
        f"{FAST_MODEL_LATENCY_S * 1000:.0f} ms/call), threads-4:",
        f"  plan order:      {plan_time * 1000:>6.0f} ms",
        f"  adaptive (LPT):  {adaptive_time * 1000:>6.0f} ms "
        "(longest-expected-unit first, cost model trained online)",
    ]

    report("runtime_scaling", "\n".join(lines))

    assert threaded_speedup >= 2.0, (
        f"threaded executor should be >= 2x faster than serial on a "
        f"latency-bound sweep, got {threaded_speedup:.2f}x"
    )
    assert api_times["async-16"] <= api_times["threads-8"] * 1.05, (
        f"async executor should match or beat the threaded executor on a "
        f"latency-bound sweep, got async {api_times['async-16'] * 1000:.0f} ms "
        f"vs threaded {api_times['threads-8'] * 1000:.0f} ms"
    )
    assert batched_speedup >= 2.0, (
        f"batched generation should be >= 2x faster than serial on a "
        f"latency-bound sweep, got {batched_speedup:.2f}x"
    )
