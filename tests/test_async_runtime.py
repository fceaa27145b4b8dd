"""Async provider runtime: AsyncExecutor and per-model batching.

The executor-equivalence matrix for the async executor's two paths —
one ``generate_batch`` call per model group, and one call per unit for
providers without a batch surface — plus retry under the run's
FaultPolicy.
Everything here enforces the runtime's core contract: the execution
strategy is a pure latency knob, never a results knob.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.core.samples import Sample
from repro.core.scorers import CodeSimilarityScorer
from repro.core.task import Task
from repro.errors import GenerationError, HarnessError, ModelError
from repro.llm.api import Model, as_async, get_model
from repro.llm.simulated import SimulatedModel
from repro.llm.types import ChatMessage, GenerateConfig, ModelOutput, ModelUsage
from repro.runtime import (
    AsyncExecutor,
    FaultPolicy,
    InMemoryResultCache,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    group_units_by_model,
    run,
)
from repro.testing import FaultPlan, FaultyProvider, faulty_models

from executor_paths import EXECUTOR_PATHS, executor_path, per_unit_models

SIM_MODELS = [
    "sim/claude-sonnet-4", "sim/gemini-2.5-pro", "sim/llama-3.3-70b", "sim/o3",
]


def table1_sweep(executor=None, cache=None):
    """The full Table-1 sweep (4 models × 3 systems), 2 epochs."""
    return run_configuration(
        epochs=2, config=RunConfig(executor=executor, cache=cache),
    )


def echo_output(name: str, completion: str = "```\nok\n```") -> ModelOutput:
    return ModelOutput(
        model=name, completion=completion, usage=ModelUsage(1, 1)
    )


def simple_task(name: str, prompt: str = "Provide the workflow configuration "
                "file for the Wilkins workflow system.") -> Task:
    return Task(
        name=name,
        dataset=[Sample(id="s", input=prompt, target="ok")],
        solvers=[],
        scorer=CodeSimilarityScorer(metrics=("bleu",)),
    )


class FlakyProvider:
    """Fails the first ``fail_times`` calls with a transient ModelError."""

    def __init__(self, name: str, fail_times: int) -> None:
        self.name = name
        self.fail_times = fail_times
        self.calls = 0

    def generate(self, messages, config):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise ModelError(f"{self.name}: simulated 429, try again")
        return echo_output(self.name)


class TestAsyncEquivalence:
    """Both async paths must be bit-identical to SerialExecutor."""

    @pytest.fixture(scope="class")
    def serial_grid(self):
        return table1_sweep(SerialExecutor())

    @pytest.mark.parametrize("path,max_concurrency", [
        ("async", 8),
        ("async", 1),  # batched groups strictly one after another
        ("async-per-unit", 8),
    ])
    def test_table1_grid_identical_to_serial(self, serial_grid, path,
                                             max_concurrency):
        with executor_path(path, max_concurrency=max_concurrency) as executor:
            grid = table1_sweep(executor)
        assert grid.cells == serial_grid.cells, path

    @pytest.mark.parametrize("path", ["async", "async-per-unit"])
    def test_warm_cache_zero_generations(self, serial_grid, path, monkeypatch):
        cache = InMemoryResultCache()
        with executor_path(path) as executor:
            cold = table1_sweep(executor, cache=cache)
            calls = []

            def recording(self, *args):  # pragma: no cover - guard
                calls.append(self.name)
                raise AssertionError("warm rerun must not reach the model layer")

            monkeypatch.setattr(SimulatedModel, "generate", recording)
            monkeypatch.setattr(SimulatedModel, "generate_batch", recording)
            warm = table1_sweep(executor, cache=cache)
        assert calls == []
        assert warm.cells == cold.cells == serial_grid.cells

    @pytest.mark.parametrize("path", ["async", "async-per-unit"])
    def test_provider_error_propagates(self, path):
        # an empty prompt makes SimulatedModel raise GenerationError —
        # a deterministic failure, so it must surface (not be retried)
        task = Task(
            name="broken",
            dataset=[Sample(id="s", input="", target="x")],
            solvers=[],
            scorer=CodeSimilarityScorer(),
        )
        plan = Plan("p")
        plan.add_eval(task, "sim/o3", epochs=1)
        with executor_path(path) as executor:
            with pytest.raises(GenerationError, match="empty prompt"):
                run(plan, config=RunConfig(executor=executor))

    def test_empty_plan(self):
        assert AsyncExecutor(2).execute([]) == {}


def retrying(max_attempts: int) -> FaultPolicy:
    return FaultPolicy(retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0))


class TestAsyncRetry:
    """Retry belongs to the run's FaultPolicy, never to the executor."""

    def test_transient_failures_are_retried(self):
        provider = FlakyProvider("flaky/recovers", fail_times=2)
        plan = Plan("p")
        plan.add_eval(simple_task("flaky-task"), Model(provider), epochs=1)
        config = RunConfig(executor=AsyncExecutor(2), faults=retrying(3))
        outcome = run(plan, config=config)
        assert provider.calls == 3  # 2 failures + 1 success
        assert outcome.stats.generated == 1
        [result] = outcome.results.values()
        assert result.completion == "```\nok\n```"

    def test_attempts_are_bounded(self):
        provider = FlakyProvider("flaky/hopeless", fail_times=100)
        plan = Plan("p")
        plan.add_eval(simple_task("hopeless-task"), Model(provider), epochs=1)
        config = RunConfig(executor=AsyncExecutor(2), faults=retrying(3))
        with pytest.raises(ModelError, match="429"):
            run(plan, config=config)
        assert provider.calls == 3

    def test_no_fault_policy_means_one_attempt(self):
        # like SerialExecutor: without a fault scope nothing is retried
        provider = FlakyProvider("flaky/once", fail_times=1)
        plan = Plan("p")
        plan.add_eval(simple_task("once-task"), Model(provider), epochs=1)
        with pytest.raises(ModelError, match="429"):
            run(plan, config=RunConfig(executor=AsyncExecutor(2)))
        assert provider.calls == 1

    def test_deterministic_model_errors_are_not_retried(self):
        class AlwaysInvalid:
            name = "flaky/invalid"
            calls = 0

            def generate(self, messages, config):
                AlwaysInvalid.calls += 1
                raise GenerationError("malformed request")

        plan = Plan("p")
        plan.add_eval(simple_task("invalid-task"), Model(AlwaysInvalid()),
                      epochs=1)
        config = RunConfig(executor=AsyncExecutor(2), faults=retrying(5))
        with pytest.raises(GenerationError, match="malformed"):
            run(plan, config=config)
        assert AlwaysInvalid.calls == 1

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(HarnessError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(HarnessError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        policy = RetryPolicy(base_delay=0.1, max_delay=0.3)
        assert [policy.delay(a) for a in range(4)] == [0.1, 0.2, 0.3, 0.3]
        assert policy.is_retryable(ModelError("boom"))
        assert not policy.is_retryable(GenerationError("boom"))
        assert not policy.is_retryable(ValueError("boom"))

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(HarnessError, match="max_concurrency"):
            AsyncExecutor(0)

    def test_executor_takes_no_retry_knob(self):
        with pytest.raises(TypeError):
            AsyncExecutor(2, retry=RetryPolicy())


class TestAsyncNativeProvider:
    def test_async_native_provider_runs_on_the_loop(self):
        class NativeAsync:
            name = "anative/echo"
            agenerate_calls = 0

            async def agenerate(self, messages, config):
                NativeAsync.agenerate_calls += 1
                return echo_output(self.name)

            def generate(self, messages, config):  # pragma: no cover - guard
                raise AssertionError("sync path must not be used")

        provider = NativeAsync()
        assert as_async(provider) is provider
        plan = Plan("p")
        plan.add_eval(simple_task("native-async-task"), Model(provider),
                      epochs=2)
        config = RunConfig(executor=AsyncExecutor(2))
        outcome = run(plan, config=config)
        assert NativeAsync.agenerate_calls == 2
        assert outcome.stats.generated == 2

    def test_sync_provider_is_adapted(self):
        provider = get_model("sim/o3").provider
        adapted = as_async(provider)
        assert adapted is not provider
        assert adapted.name == provider.name


class TestBatchedGeneration:
    def test_one_batch_call_per_model_group(self, monkeypatch):
        batch_calls = []
        real = SimulatedModel.generate_batch

        def recording_batch(self, requests):
            batch_calls.append((self.name, len(requests)))
            return real(self, requests)

        def no_single(self, messages, config):  # pragma: no cover - guard
            raise AssertionError(
                "batched execution must not fall back to generate()"
            )

        monkeypatch.setattr(SimulatedModel, "generate_batch", recording_batch)
        monkeypatch.setattr(SimulatedModel, "generate", no_single)
        with AsyncExecutor(8) as executor:
            grid = table1_sweep(executor)
        assert sorted(batch_calls) == [
            ("sim/claude-sonnet-4", 6),
            ("sim/gemini-2.5-pro", 6),
            ("sim/llama-3.3-70b", 6),
            ("sim/o3", 6),
        ]
        assert grid.cells  # sweep actually produced results

    @pytest.mark.parametrize("path", ["async", "async-per-unit"])
    def test_calls_follow_the_provider_surface(self, path):
        # 3 systems × 2 epochs = 6 units per model group
        with executor_path(path, max_concurrency=8) as executor, \
                faulty_models(SIM_MODELS, FaultPlan()) as wrapped:
            table1_sweep(executor)
        for provider in wrapped.values():
            if path == "async":
                assert (provider.batch_calls, provider.calls) == (1, 0)
            else:
                assert (provider.batch_calls, provider.calls) == (0, 6)

    # one slot: the batched call must release it before its units fall
    # back, or the fallback would wait on itself forever
    @pytest.mark.parametrize("max_concurrency", [8, 1])
    def test_poisoned_batch_attempts_each_sibling_once(self, max_concurrency):
        # permanent faults poison some requests of two models: their
        # groups' batch calls fail, then every unit of those groups gets
        # exactly one call of its own; only the poisoned units are
        # quarantined, and the clean groups stay one batched call each
        fault_plan = FaultPlan(seed=2, permanent_rate=0.25)
        faults = FaultPolicy(retry=RetryPolicy(max_attempts=1), on_failure="isolate")
        baseline = run(self.sweep_plan())
        with faulty_models(SIM_MODELS[:2], fault_plan) as poisoned, \
                faulty_models(SIM_MODELS[2:], FaultPlan()) as clean:
            with AsyncExecutor(max_concurrency) as executor:
                outcome = run(
                    self.sweep_plan(),
                    config=RunConfig(executor=executor, faults=faults),
                )
        for provider in poisoned.values():
            assert provider.injected["permanent"] > 0, "pick a different seed"
            assert (provider.batch_calls, provider.calls) == (1, 6)
        for provider in clean.values():
            assert (provider.batch_calls, provider.calls) == (1, 0)
        assert 0 < outcome.stats.units_failed < 12
        for uid, result in baseline.results.items():
            if uid not in outcome.failures:
                assert outcome[uid].score == result.score

    @staticmethod
    def sweep_plan() -> Plan:
        plan = Plan("poisoned-batch")
        for system in ("wilkins", "adios2", "henson"):
            task = configuration_task(system)
            for model in SIM_MODELS:
                plan.add_eval(task, model, epochs=2)
        return plan

    def test_simulated_batch_matches_per_call_generate(self):
        model = get_model("sim/gemini-2.5-pro")
        prompts = [
            "Provide the workflow configuration file for the Wilkins "
            "workflow system.",
            "Provide the workflow configuration file for the Henson "
            "workflow system.",
        ]
        requests = [
            ([ChatMessage.user(p)], GenerateConfig(seed=seed))
            for p in prompts
            for seed in (0, 1)
        ]
        batched = model.provider.generate_batch(requests)
        singles = [model.provider.generate(m, c) for m, c in requests]
        assert [o.completion for o in batched] == [
            o.completion for o in singles
        ]
        assert [o.usage for o in batched] == [o.usage for o in singles]

    def test_provider_without_batch_support_falls_back(self):
        class PlainEcho:
            name = "plain/echo-nobatch"
            calls = 0

            def generate(self, messages, config):
                PlainEcho.calls += 1
                return echo_output(self.name)

        plan = Plan("p")
        plan.add_eval(simple_task("nobatch-task"), Model(PlainEcho()),
                      epochs=3)
        config = RunConfig(executor=AsyncExecutor(2))
        outcome = run(plan, config=config)
        assert PlainEcho.calls == 3
        assert outcome.stats.generated == 3

    def test_wrong_batch_size_is_detected(self):
        class Lossy:
            name = "plain/echo-lossy"
            calls = 0

            def generate(self, messages, config):
                Lossy.calls += 1
                return echo_output(self.name)

            def generate_batch(self, requests):
                return [echo_output(self.name)]  # one short

        plan = Plan("p")
        plan.add_eval(simple_task("lossy-task"), Model(Lossy()), epochs=2)
        # the Model layer detects the short batch...
        with pytest.raises(ModelError, match="outputs"):
            get_model("plain/echo-lossy").generate_batch(
                [("a", None), ("b", None)]
            )
        # ...and the executor heals it by driving the group per-request
        config = RunConfig(executor=AsyncExecutor(2))
        outcome = run(plan, config=config)
        assert Lossy.calls == 2
        assert outcome.stats.generated == 2

    def test_group_units_by_model_preserves_plan_order(self):
        plan = Plan("p")
        for system in ("wilkins", "adios2"):
            task = configuration_task(system)
            for model in ("sim/o3", "sim/claude-sonnet-4"):
                plan.add_eval(task, model, epochs=2)
        groups = group_units_by_model(plan.units)
        assert sorted(groups) == ["sim/claude-sonnet-4", "sim/o3"]
        for model, units in groups.items():
            assert all(u.model == model for u in units)
            uids = [u.uid for u in units]
            plan_order = [u.uid for u in plan.units if u.model == model]
            assert uids == plan_order

    def test_model_wrapper_generate_batch(self):
        model = get_model("sim/o3")
        prompt = ("Provide the workflow configuration file for the Wilkins "
                  "workflow system.")
        outputs = model.generate_batch([
            (prompt, GenerateConfig(seed=0)),
            (prompt, None),  # defaults applied like Model.generate
        ])
        assert len(outputs) == 2
        assert outputs[0].completion == outputs[1].completion


class TestBatchUnderFaultPolicy:
    """A batched group keeps the policy's deadline and circuit breaker."""

    def test_hung_batch_is_cancelled_at_the_unit_deadline(self):
        release = threading.Event()

        class HungBatch:
            name = "plain/hung-batch"
            calls = 0

            def generate(self, messages, config):  # pragma: no cover - guard
                HungBatch.calls += 1
                return echo_output(self.name)

            def generate_batch(self, requests):
                release.wait(5.0)
                return [echo_output(self.name) for _ in requests]

        plan = Plan("p")
        plan.add_eval(simple_task("hung-batch-task"), Model(HungBatch()), epochs=2)
        faults = FaultPolicy(unit_deadline_s=0.05, on_failure="isolate")
        with AsyncExecutor(2) as executor:
            started = time.perf_counter()
            outcome = run(plan, config=RunConfig(executor=executor, faults=faults))
            elapsed = time.perf_counter() - started
            release.set()  # let the abandoned pool thread finish
        assert elapsed < 2.0  # cancelled, not waited out
        assert outcome.stats.units_failed == 2
        errors = {f.error_type for f in outcome.failures.values()}
        assert errors == {"DeadlineExceededError"}
        assert HungBatch.calls == 0  # a spent deadline leaves no fallback

    def test_wrappers_only_batch_when_the_provider_does(self):
        class PlainEcho:
            name = "plain/echo-tracked"
            calls = 0

            def generate(self, messages, config):
                PlainEcho.calls += 1
                return echo_output(self.name)

        wrapped = FaultyProvider(PlainEcho(), FaultPlan())
        assert not hasattr(wrapped, "generate_batch")
        sim = get_model("sim/o3").provider
        assert callable(FaultyProvider(sim, FaultPlan()).generate_batch)

        plan = Plan("p")
        plan.add_eval(simple_task("tracked-task"), Model(wrapped), epochs=3)
        outcome = run(plan, config=RunConfig(executor=AsyncExecutor(2)))
        assert PlainEcho.calls == 3
        assert outcome.stats.generated == 3


class TestAsyncTracing:
    def test_batched_groups_and_per_unit_calls_are_traced(self):
        plan = Plan("p")
        for model in ("sim/o3", "sim/llama-3.3-70b"):
            plan.add_eval(configuration_task("wilkins"), model, epochs=2)
        with per_unit_models(["sim/llama-3.3-70b"]):
            with obs.tracing() as tracer, AsyncExecutor(4) as executor:
                handle = tracer.begin_trace("t")
                executor.execute(plan.units)
                trace = tracer.end_trace(handle)
        names = [s.name for s in trace.spans]
        assert names.count("batch") == 1  # sim/o3: one batched group
        assert names.count("unit") == 2  # llama: one span per unit


class TestGenerationSeconds:
    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_only_fresh_generations_are_timed(self, path):
        plan = Plan("p")
        for model in ("sim/o3", "sim/llama-3.3-70b"):
            plan.add_eval(configuration_task("wilkins"), model, epochs=2)
        cache = InMemoryResultCache()
        with executor_path(path) as executor:
            config = RunConfig(executor=executor, cache=cache)
            cold = run(plan, config=config)
            warm = run(plan, config=config)
        assert cold.stats.generation_seconds > 0
        assert warm.stats.generated == 0
        assert warm.stats.generation_seconds == 0.0


class TestDispatchOrder:
    def test_executor_receives_pending_units_in_plan_order(self):
        class Recording(SerialExecutor):
            def __init__(self) -> None:
                super().__init__()
                self.batches: list[list[str]] = []

            def execute(self, units):
                self.batches.append([u.uid for u in units])
                return super().execute(units)

        cache = InMemoryResultCache()
        warm_plan = Plan("warm")
        warm_plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=2)
        run(warm_plan, config=RunConfig(cache=cache))

        plan = Plan("p")
        for model in ("sim/llama-3.3-70b", "sim/o3"):
            plan.add_eval(configuration_task("wilkins"), model, epochs=3)
        executor = Recording()
        outcome = run(plan, config=RunConfig(executor=executor, cache=cache))
        # one call, holding exactly the cache misses, in plan order
        cached_keys = {u.key for u in warm_plan.units}
        expected = [u.uid for u in plan.units if u.key not in cached_keys]
        assert executor.batches == [expected]
        assert len(expected) == 4
        assert outcome.stats.generated == 4


class TestAsyncExecutorCloseRegression:
    def test_context_manager_after_close_raises(self):
        executor = AsyncExecutor(2)
        executor.close()
        with pytest.raises(HarnessError, match="closed"):
            with executor:
                pass  # pragma: no cover - must not be reached

    def test_async_pool_persists_across_executes(self):
        executor = AsyncExecutor(2)
        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=1)
        config = RunConfig(executor=executor)
        run(plan, config=config)
        pool = executor._pool
        assert pool is not None
        plan2 = Plan("p2")
        plan2.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        run(plan2, config=config)
        assert executor._pool is pool, "execute() must reuse the lazy pool"
        executor.close()
        assert executor._pool is None
        # transparent reopen on plain execute
        run(plan2, config=config)
        assert executor._pool is not None
        executor.close()

    def test_execute_after_close_still_reopens(self):
        executor = AsyncExecutor(2)
        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=1)
        config = RunConfig(executor=executor)
        run(plan, config=config)
        executor.close()
        # the documented transparent reopen on plain execute() survives,
        # and afterwards the executor is context-manager-safe again
        run(plan, config=config)
        with executor:
            pass
        assert executor._pool is None
