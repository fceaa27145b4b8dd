"""Threaded provider runtime: ThreadExecutor, one provider call per unit.

The thread executor's equivalence with the serial one, its call counts,
and retry and isolation under the run's FaultPolicy.
Everything here enforces the runtime's core contract: the execution
strategy is a pure latency knob, never a results knob.
"""

from __future__ import annotations

import collections
import threading
import time

import pytest

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.core.samples import Sample
from repro.core.scorers import CodeSimilarityScorer
from repro.core.task import Task
from repro.errors import GenerationError, HarnessError, ModelError
from repro.llm.api import Model
from repro.llm.simulated import SimulatedModel
from repro.llm.types import ModelOutput, ModelUsage
from repro.runtime import (
    FaultPolicy,
    InMemoryResultCache,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    ThreadExecutor,
    run,
)
from repro.testing import FaultPlan, faulty_models

from executor_paths import EXECUTOR_PATHS, executor_path

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


class TestThreadEquivalence:
    """The thread executor must be bit-identical to SerialExecutor."""

    @pytest.fixture(scope="class")
    def serial_grid(self):
        return table1_sweep(SerialExecutor())

    @pytest.mark.parametrize("path,max_concurrency", [
        ("threads", 8),
        ("threads", 1),  # units strictly one after another
    ])
    def test_table1_grid_identical_to_serial(self, serial_grid, path,
                                             max_concurrency):
        executor = executor_path(path, max_concurrency=max_concurrency)
        grid = table1_sweep(executor)
        assert grid.cells == serial_grid.cells, path

    def test_warm_cache_zero_generations(self, serial_grid, monkeypatch):
        cache = InMemoryResultCache()
        executor = executor_path("threads")
        cold = table1_sweep(executor, cache=cache)
        calls = []

        def recording(self, *args):  # pragma: no cover - guard
            calls.append(self.name)
            raise AssertionError("warm rerun must not reach the model layer")

        monkeypatch.setattr(SimulatedModel, "generate", recording)
        warm = table1_sweep(executor, cache=cache)
        assert calls == []
        assert warm.cells == cold.cells == serial_grid.cells

    def test_provider_error_propagates(self):
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
        executor = executor_path("threads")
        with pytest.raises(GenerationError, match="empty prompt"):
            run(plan, config=RunConfig(executor=executor))

    def test_empty_plan(self):
        assert ThreadExecutor(2).execute([]) == {}


def retrying(max_attempts: int) -> FaultPolicy:
    return FaultPolicy(retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0))


class TestThreadRetry:
    """Retry belongs to the run's FaultPolicy, never to the executor."""

    def test_transient_failures_are_retried(self):
        provider = FlakyProvider("flaky/recovers", fail_times=2)
        plan = Plan("p")
        plan.add_eval(simple_task("flaky-task"), Model(provider), epochs=1)
        config = RunConfig(executor=ThreadExecutor(2), faults=retrying(3))
        outcome = run(plan, config=config)
        assert provider.calls == 3  # 2 failures + 1 success
        assert outcome.stats.generated == 1
        [result] = outcome.results.values()
        assert result.completion == "```\nok\n```"

    def test_attempts_are_bounded(self):
        provider = FlakyProvider("flaky/hopeless", fail_times=100)
        plan = Plan("p")
        plan.add_eval(simple_task("hopeless-task"), Model(provider), epochs=1)
        config = RunConfig(executor=ThreadExecutor(2), faults=retrying(3))
        with pytest.raises(ModelError, match="429"):
            run(plan, config=config)
        assert provider.calls == 3

    def test_no_fault_policy_means_one_attempt(self):
        # like SerialExecutor: without a fault scope nothing is retried
        provider = FlakyProvider("flaky/once", fail_times=1)
        plan = Plan("p")
        plan.add_eval(simple_task("once-task"), Model(provider), epochs=1)
        with pytest.raises(ModelError, match="429"):
            run(plan, config=RunConfig(executor=ThreadExecutor(2)))
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
        config = RunConfig(executor=ThreadExecutor(2), faults=retrying(5))
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
            ThreadExecutor(0)

    def test_executor_takes_no_retry_knob(self):
        with pytest.raises(TypeError):
            ThreadExecutor(2, retry=RetryPolicy())


class TestStopOnError:
    """An error that propagates stops the units that have not started."""

    @pytest.mark.parametrize("max_concurrency", [1, 4])
    @pytest.mark.parametrize("error,on_failure", [
        (GenerationError, "raise"),
        (TypeError, "isolate"),  # a programming error is never quarantined
    ])
    def test_error_propagates_and_later_units_are_never_called(
        self, max_concurrency, error, on_failure
    ):
        class AlwaysBroken:
            name = f"broken/threads-{max_concurrency}-{error.__name__}"

            def __init__(self) -> None:
                self.calls = 0
                self._mu = threading.Lock()

            def generate(self, messages, config):
                with self._mu:
                    self.calls += 1
                raise error("malformed request")

        provider = AlwaysBroken()
        task = Task(
            name=f"stop-{max_concurrency}-{error.__name__}",
            dataset=[Sample(id=f"s{i}", input=f"prompt {i}", target="ok")
                     for i in range(6)],
            solvers=[],
            scorer=CodeSimilarityScorer(metrics=("bleu",)),
        )
        plan = Plan("stop-on-error")
        plan.add_eval(task, Model(provider), epochs=2)
        config = RunConfig(executor=ThreadExecutor(max_concurrency),
                           faults=FaultPolicy(on_failure=on_failure))
        with pytest.raises(error, match="malformed"):
            run(plan, config=config)
        # each worker starts at most one unit before the first error;
        # the other units of the 12 never reach the provider
        assert 1 <= provider.calls <= max_concurrency

    def test_pool_threads_end_with_execute(self):
        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=2)
        run(plan, config=RunConfig(executor=ThreadExecutor(4)))
        workers = [t for t in threading.enumerate()
                   if t.name.startswith("repro-unit")]
        assert workers == []


class PerRequestFlaky:
    """Fails each distinct request's first ``fail_times`` calls."""

    def __init__(self, name: str, fail_times: int) -> None:
        self.name = name
        self.fail_times = fail_times
        self.calls: collections.Counter = collections.Counter()
        self._mu = threading.Lock()

    def generate(self, messages, config):
        request = (messages[-1].content, config.seed)
        with self._mu:
            self.calls[request] += 1
            strike = self.calls[request] <= self.fail_times
        if strike:
            raise ModelError(f"{self.name}: simulated 503, try again")
        return echo_output(self.name)


class TestAttemptsMatchSerial:
    """Both executors give every unit exactly the policy's attempts."""

    @staticmethod
    def plan_for(provider) -> Plan:
        task = Task(
            name=f"attempts-{provider.name}",
            dataset=[Sample(id=f"s{i}", input=f"prompt {i}", target="ok")
                     for i in range(3)],
            solvers=[],
            scorer=CodeSimilarityScorer(metrics=("bleu",)),
        )
        plan = Plan("attempts")
        plan.add_eval(task, Model(provider), epochs=2)
        return plan

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    @pytest.mark.parametrize("max_attempts,fail_times", [
        (1, 0), (1, 1), (2, 1), (3, 2), (2, 5),
    ])
    def test_each_unit_gets_the_policys_attempts(self, path, max_attempts,
                                                 fail_times):
        provider = PerRequestFlaky(
            f"attempts/{path}-{max_attempts}-{fail_times}", fail_times
        )
        faults = FaultPolicy(
            retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0),
            on_failure="isolate",
        )
        executor = executor_path(path)
        outcome = run(self.plan_for(provider),
                      config=RunConfig(executor=executor, faults=faults))
        # 3 prompts x 2 seeds, each attempted until it heals or runs out
        assert len(provider.calls) == 6
        assert set(provider.calls.values()) == {min(fail_times + 1, max_attempts)}
        healed = fail_times < max_attempts
        assert outcome.stats.units_failed == (0 if healed else 6)
        assert outcome.stats.generated == (6 if healed else 0)

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    @pytest.mark.parametrize("fail_times", [0, 1])
    def test_no_policy_means_one_attempt_per_unit(self, path, fail_times):
        provider = PerRequestFlaky(f"attempts/{path}-none-{fail_times}", fail_times)
        executor = executor_path(path)
        config = RunConfig(executor=executor)
        if fail_times:
            with pytest.raises(ModelError, match="503"):
                run(self.plan_for(provider), config=config)
        else:
            run(self.plan_for(provider), config=config)
        assert provider.calls
        assert set(provider.calls.values()) == {1}


class TestOneCallPerUnit:
    def test_poisoned_units_each_get_one_attempt(self):
        # permanent faults poison some requests of two models; with one
        # attempt per unit, every unit reaches its provider exactly once
        # and only the poisoned units are quarantined
        fault_plan = FaultPlan(seed=2, permanent_rate=0.25)
        faults = FaultPolicy(retry=RetryPolicy(max_attempts=1), on_failure="isolate")
        baseline = run(self.sweep_plan())
        with faulty_models(SIM_MODELS[:2], fault_plan) as poisoned, \
                faulty_models(SIM_MODELS[2:], FaultPlan()) as clean:
            outcome = run(
                self.sweep_plan(),
                config=RunConfig(executor=ThreadExecutor(8), faults=faults),
            )
        for provider in poisoned.values():
            assert provider.injected["permanent"] > 0, "pick a different seed"
        for provider in [*poisoned.values(), *clean.values()]:
            assert provider.calls == 6
        assert 0 < outcome.stats.units_failed < 12
        for uid, result in baseline.results.items():
            if uid not in outcome.failures:
                assert outcome[uid].score == result.score

    @staticmethod
    def sweep_plan() -> Plan:
        plan = Plan("poisoned-units")
        for system in ("wilkins", "adios2", "henson"):
            task = configuration_task(system)
            for model in SIM_MODELS:
                plan.add_eval(task, model, epochs=2)
        return plan


class TestDeadlineBetweenAttempts:
    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_slow_failing_units_stop_retrying_at_the_deadline(self, path):
        class SlowAndDown:
            name = f"plain/slow-down-{path}"

            def generate(self, messages, config):
                time.sleep(0.02)
                raise ModelError(f"{self.name}: 503, try again")

        plan = Plan("p")
        plan.add_eval(simple_task(f"slow-down-{path}"), Model(SlowAndDown()),
                      epochs=2)
        faults = FaultPolicy(
            retry=RetryPolicy(max_attempts=50, base_delay=0.01),
            unit_deadline_s=0.05,
            on_failure="isolate",
        )
        outcome = run(plan, config=RunConfig(executor=executor_path(path),
                                             faults=faults))
        assert outcome.stats.units_failed == 2
        failures = outcome.failures.values()
        assert {f.error_type for f in failures} == {"DeadlineExceededError"}
        assert all(f.attempts < 50 for f in failures)


class TestGenerationSeconds:
    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_only_fresh_generations_are_timed(self, path):
        plan = Plan("p")
        for model in ("sim/o3", "sim/llama-3.3-70b"):
            plan.add_eval(configuration_task("wilkins"), model, epochs=2)
        cache = InMemoryResultCache()
        executor = executor_path(path)
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
