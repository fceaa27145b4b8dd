"""Runtime scaling — executors and result cache on a fixed sweep.

Times the Table 1-shaped sweep (4 models × 3 systems × 2 epochs = 24
generations) on the two executors — serial and threads — three ways:

* a **cold-cache serial sweep** against freshly constructed simulated
  models, so the timing includes per-cell calibration — the number the
  compiled-metrics engine is measured by (reported for the perf
  trajectory);
* against the **offline simulator** (CPU-bound; extra threads only
  contend for the GIL, which is why serial is the default) — reported
  for the perf trajectory, not asserted;
* against **latency providers** that wrap each simulated model with a
  fixed per-call delay, the regime a real API endpoint lives in; the
  thread executor must be ≥ 2× faster than serial there;
* and with a **warm result cache**, which must skip the model layer
  entirely (zero new generations) while producing identical results.

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
    InMemoryResultCache,
    Plan,
    RunConfig,
    SerialExecutor,
    ThreadExecutor,
    run,
)

EPOCHS = 2
API_LATENCY_S = 0.15  # per-call delay of the simulated network endpoint


class _LatencyProvider:
    """A simulated-model wrapper that costs a fixed delay per call."""

    def __init__(self, inner, delay: float, namespace: str) -> None:
        self._inner = inner
        self._delay = delay
        self.name = f"{namespace}/{inner.name.split('/', 1)[1]}"

    def generate(self, messages, config):
        time.sleep(self._delay)
        return self._inner.generate(messages, config)


def _register_latency_models() -> None:
    """``apisim/<model>``: each simulated model behind a fixed delay."""
    for model in MODELS:
        inner = get_model(f"sim/{model}").provider
        register_model(
            f"apisim/{model}",
            lambda inner=inner: _LatencyProvider(inner, API_LATENCY_S, "apisim"),
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


def _sweep_plan(namespace: str) -> Plan:
    plan = Plan(f"scaling/{namespace}")
    for system in CONFIGURATION_SYSTEMS:
        task = configuration_task(system)
        for model in MODELS:
            plan.add_eval(task, f"{namespace}/{model}", epochs=EPOCHS)
    return plan


def _timed(namespace: str, executor, cache=None):
    plan = _sweep_plan(namespace)
    started = time.perf_counter()
    config = RunConfig(executor=executor, cache=cache)
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

    executors = [("serial", SerialExecutor()), ("threads-16", ThreadExecutor(16))]
    lines = [
        "runtime scaling — 4 models x 3 systems x 2 epochs (24 generations)",
        f"simulated API latency: {API_LATENCY_S * 1000:.0f} ms/call",
        f"cold-cache serial sweep (incl. calibration): "
        f"{cold_serial_time * 1000:.0f} ms",
        "",
        f"{'executor':<15} {'sim (CPU-bound)':>16} {'api (latency)':>14} "
        f"{'api warm cache':>15}",
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
        assert (
            warm.stats.cache_hits
            == warm.stats.total_units - warm.stats.deduplicated
        )
        # uids carry the namespace, so compare scores in plan order
        scores = [r.score["bleu"] for r in warm.results.values()]
        if baseline_results is None:
            baseline_results = scores
        else:
            assert scores == baseline_results, (
                f"{label} results differ from serial"
            )

        lines.append(
            f"{label:<15} {sim_times[label] * 1000:>13.0f} ms "
            f"{api_times[label] * 1000:>11.0f} ms {warm_time * 1000:>12.0f} ms"
        )

    unit_speedup = api_times["serial"] / api_times["threads-16"]
    lines += [
        "",
        f"latency-bound speedup vs serial: threads-16 {unit_speedup:.1f}x",
        f"CPU-bound (GIL) speedup vs serial: threads-16 "
        f"{sim_times['serial'] / sim_times['threads-16']:.1f}x",
    ]

    report("runtime_scaling", "\n".join(lines))

    assert unit_speedup >= 2.0, (
        f"thread executor should be >= 2x faster than serial on a "
        f"latency-bound sweep, got {unit_speedup:.2f}x"
    )
