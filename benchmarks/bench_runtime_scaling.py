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

The final **scoring** section times a *score-heavy* sweep — ~30 KiB
targets so BLEU/ChrF cost about as much as the provider's simulated
round trip — serially and then pipelined through a
:class:`~repro.runtime.scoring.ScoringPool`: completed units stream
into a scorer process while the run thread is already waiting on the
next provider call, so metric work hides inside generation latency
(and, on multi-core hosts, parallelizes across workers on top).  The
pipelined pass must be ≥ 1.5× faster (asserted in full mode; smoke
mode is report-only) and the ratio is merged into
``BENCH_metrics.json`` under the ``scoring`` key for the CI
regression gate.

Numbers land in ``benchmarks/output/runtime_scaling.txt`` so future PRs
have a perf trajectory to compare against.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.assets import reference_config
from repro.core.experiments.configuration import (
    CONFIGURATION_SYSTEMS,
    configuration_task,
)
from repro.core.samples import Sample
from repro.core.task import Task
from repro.data import MODELS
from repro.llm.api import get_model, register_model
from repro.llm.types import ModelOutput, ModelUsage
from repro.runtime import (
    AdaptiveScheduler,
    AsyncExecutor,
    BatchingExecutor,
    InMemoryResultCache,
    MpiShardExecutor,
    Plan,
    RunConfig,
    ScoringPool,
    SerialExecutor,
    ThreadedExecutor,
    run,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_metrics.json"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

EPOCHS = 2
API_LATENCY_S = 0.15  # per-call delay of the simulated network endpoint
SLOW_MODEL_LATENCY_S = 0.6  # the straggler provider of the hetero sweep
FAST_MODEL_LATENCY_S = 0.02

SCORE_SAMPLES = 4 if SMOKE else 8  # score-heavy sweep width
SCORE_EPOCHS = 2
SCORE_TARGET_REPEATS = 8 if SMOKE else 24  # target size multiplier
SCORE_LATENCY_S = 0.015 if SMOKE else 0.045  # provider round trip per call
SCORE_WORKERS = 1


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


class _ScoreHeavyProvider:
    """A latency-bound provider whose outputs are expensive to score.

    Each call sleeps ``SCORE_LATENCY_S`` (the simulated API round trip)
    and returns the prompt with every ``(7 + seed)``-th token dropped —
    a deterministic ~30 KiB completion whose BLEU/ChrF cost is of the
    same order as the round trip.  That is exactly the regime pipelined
    scoring targets: while the run thread waits on the next call, the
    scorer process grinds through the previous completions, even on a
    single-core host.
    """

    name = "scoreheavy/echo"

    def generate(self, messages, config):
        time.sleep(SCORE_LATENCY_S)
        prompt = messages[-1].content
        step = 7 + (config.seed or 0)
        tokens = prompt.split(" ")
        completion = " ".join(
            tok for i, tok in enumerate(tokens) if (i + 1) % step
        )
        return ModelOutput(
            model=self.name,
            completion=completion,
            usage=ModelUsage(
                input_tokens=len(tokens), output_tokens=len(tokens)
            ),
        )


def _score_heavy_plan(tag: str) -> Plan:
    """SCORE_SAMPLES distinct big-target samples × SCORE_EPOCHS epochs."""
    register_model("scoreheavy/echo", _ScoreHeavyProvider)
    base = "\n".join(reference_config(s) for s in CONFIGURATION_SYSTEMS)
    samples = []
    for i in range(SCORE_SAMPLES):
        body = f"# sample {i}\n" + base * SCORE_TARGET_REPEATS
        samples.append(Sample(id=f"scoreheavy/{i}", input=body, target=body))
    task = Task(name=f"scoreheavy/{tag}", dataset=samples)
    plan = Plan(f"scaling/scoreheavy/{tag}")
    plan.add_eval(task, "scoreheavy/echo", epochs=SCORE_EPOCHS)
    return plan


def _merge_scoring_results(results: list[dict]) -> None:
    """Attach the scoring section to BENCH_metrics.json, keeping the rest."""
    payload: dict = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    if not isinstance(payload, dict):
        payload = {}
    payload["scoring"] = {
        "benchmark": "scoring",
        "smoke": SMOKE,
        "unix_time": time.time(),
        "results": results,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


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
        ("mpi-4", MpiShardExecutor(4)),
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
    mpi_speedup = api_times["serial"] / api_times["mpi-4"]
    async_speedup = api_times["serial"] / api_times["async-16"]
    batched_speedup = api_times["serial"] / api_times["batched"]
    lines += [
        "",
        f"latency-bound speedup vs serial: threads-8 {threaded_speedup:.1f}x, "
        f"mpi-4 {mpi_speedup:.1f}x, async-16 {async_speedup:.1f}x, "
        f"batched {batched_speedup:.1f}x",
        f"CPU-bound (GIL) speedup vs serial: threads-8 "
        f"{sim_times['serial'] / sim_times['threads-8']:.1f}x, mpi-4 "
        f"{sim_times['serial'] / sim_times['mpi-4']:.1f}x",
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

    # pipelined scoring: a score-heavy sweep (near-free generation, big
    # targets) serially vs. streamed through a process pool of scorers
    units = SCORE_SAMPLES * SCORE_EPOCHS
    started = time.perf_counter()
    serial_outcome = run(_score_heavy_plan("serial"))
    scoring_serial_s = time.perf_counter() - started
    with ScoringPool(max_workers=SCORE_WORKERS) as scoring_pool:
        scoring_pool.warm()  # pay process start-up outside the timing
        started = time.perf_counter()
        pipelined_outcome = run(
            _score_heavy_plan("pipelined"),
            config=RunConfig(scoring=scoring_pool),
        )
        scoring_pipelined_s = time.perf_counter() - started
    assert serial_outcome.stats.scores_computed == units
    assert pipelined_outcome.stats.scores_computed == units
    serial_scores = sorted(
        (uid.rsplit("/", 1)[-1], r.score["bleu"], r.score["chrf"])
        for uid, r in serial_outcome.results.items()
    )
    pipelined_scores = sorted(
        (uid.rsplit("/", 1)[-1], r.score["bleu"], r.score["chrf"])
        for uid, r in pipelined_outcome.results.items()
    )
    assert serial_scores == pipelined_scores, (
        "process-pool scoring must be bit-identical to inline scoring"
    )
    scoring_speedup = scoring_serial_s / max(scoring_pipelined_s, 1e-9)
    lines += [
        "",
        f"pipelined scoring — score-heavy sweep ({units} units, "
        f"~{SCORE_TARGET_REPEATS * 1.3:.0f} KiB targets, "
        f"{SCORE_LATENCY_S * 1000:.0f} ms provider round trip, "
        f"{SCORE_WORKERS} scorer processes):",
        f"  serial scoring:     {scoring_serial_s * 1000:>6.0f} ms "
        "(every score on the run thread, after its generation)",
        f"  pipelined scoring:  {scoring_pipelined_s * 1000:>6.0f} ms "
        f"({scoring_speedup:.1f}x, scores overlap generation latency; "
        "grids bit-identical)",
    ]
    _merge_scoring_results([
        {
            "scenario": "score_heavy",
            "units": units,
            "workers": SCORE_WORKERS,
            "serial_ms": scoring_serial_s * 1000,
            "pipelined_ms": scoring_pipelined_s * 1000,
            "pipelined_over_serial": scoring_pipelined_s
            / max(scoring_serial_s, 1e-9),
        }
    ])
    lines += ["", f"[scoring section merged into {RESULTS_PATH}]"]
    report("runtime_scaling", "\n".join(lines))

    if not SMOKE:
        # smoke mode (CI) is report-only for wall-clock ratios on shared
        # runners; the regression gate compares the normalized ratio
        assert scoring_speedup >= 1.5, (
            f"pipelined scoring should be >= 1.5x faster than serial "
            f"scoring on a score-heavy sweep, got {scoring_speedup:.2f}x"
        )

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
