"""Runtime scaling — executors and result cache on a fixed sweep.

Times the Table 1-shaped sweep (4 models × 3 systems × 2 epochs = 24
generations) on the two executors — serial and threads — three ways:

* a **cold-cache serial sweep** against freshly constructed simulated
  models, so the timing includes setting up every cell: its reference
  compiled and its calibrated depth looked up in the shipped table
  (:mod:`repro.llm.calibrated`), with a curve scan only on a miss —
  reported for the perf trajectory.  What calibrating from scratch
  costs is printed by ``python -m repro.core.calibration_table
  --check``;
* against the **offline simulator** (CPU-bound; extra threads only
  contend for the GIL, which is why serial is the default) — reported
  for the perf trajectory, not asserted.  One such sweep takes tens of
  milliseconds and a single timing swings several-fold with the
  scheduler, so each executor's column is the median of
  ``SIM_ROUNDS`` rounds, each timing both executors once and
  alternating which goes first;
* against **latency providers** that wrap each simulated model with a
  fixed per-call delay, the regime a real API endpoint lives in; the
  thread executor must be ≥ 2× faster than serial there;
* and with a **warm result cache**, which must skip the model layer
  entirely (zero new generations) while producing identical results.

Numbers land in ``benchmarks/output/runtime_scaling.txt`` so future PRs
have a perf trajectory to compare against.
"""

from __future__ import annotations

import statistics
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
SIM_ROUNDS = 5  # paired rounds behind the median CPU-bound sweep time


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
    # includes every cell's setup (a calibration-table lookup per cell)
    _register_cold_models()
    cold_serial_time, _ = _timed("coldsim", SerialExecutor())

    # warm the per-cell caches so every timing below measures
    # steady-state generation, not one-off cell setup
    run(_sweep_plan("sim"))

    executors = [("serial", SerialExecutor()), ("threads-16", ThreadExecutor(16))]
    lines = [
        "runtime scaling — 4 models x 3 systems x 2 epochs (24 generations)",
        f"simulated API latency: {API_LATENCY_S * 1000:.0f} ms/call",
        f"cold-cache serial sweep (incl. calibration-table lookups): "
        f"{cold_serial_time * 1000:.0f} ms",
        "",
        f"{'executor':<15} {'sim (CPU-bound)':>16} {'api (latency)':>14} "
        f"{'api warm cache':>15}",
    ]
    sim_samples: dict[str, list[float]] = {label: [] for label, _ in executors}
    for round_index in range(SIM_ROUNDS):
        # alternate which executor goes first so drift hits both equally
        order = executors if round_index % 2 == 0 else executors[::-1]
        for label, executor in order:
            sim_samples[label].append(_timed("sim", executor)[0])
    sim_times = {
        label: statistics.median(samples) for label, samples in sim_samples.items()
    }
    api_times: dict[str, float] = {}
    baseline_results = None
    for label, executor in executors:
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
        f"(sim: median of {SIM_ROUNDS} rounds, alternating which "
        "executor runs first)",
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
