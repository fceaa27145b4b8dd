"""Unit tests for the fault-tolerance layer (repro.runtime.faults)."""

from __future__ import annotations

import time

import pytest

from repro.core.experiments.configuration import configuration_task
from repro.errors import (
    CalibrationError,
    DeadlineExceededError,
    GenerationError,
    HarnessError,
    ModelError,
    UnitFailedError,
    UnknownModelError,
)
from repro.runtime import (
    FaultPolicy,
    Plan,
    RetryPolicy,
    RunConfig,
    ThreadExecutor,
    run,
)
from repro.runtime.faults import (
    FailedGeneration,
    FaultState,
    UnitFailure,
    active_faults,
    failure_from_payload,
    failure_payload,
    fault_scope,
)


def one_unit():
    plan = Plan("faults-unit")
    plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
    return plan.units[0]


class TestRetryPolicy:
    def test_retryable_is_transient_model_errors_only(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ModelError("rate limited"))
        # permanent, caller-bug and deadline shapes are never retried
        assert not policy.is_retryable(UnknownModelError("no such model"))
        assert not policy.is_retryable(GenerationError("empty prompt"))
        assert not policy.is_retryable(CalibrationError("no depth fits"))
        assert not policy.is_retryable(DeadlineExceededError("too slow"))
        assert not policy.is_retryable(ValueError("not a model error"))
        assert not policy.is_retryable(OSError("disk"))

    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_zero_delay_policy_never_sleeps(self):
        policy = RetryPolicy(base_delay=0.0, max_delay=0.0)
        assert all(policy.delay(attempt) == 0.0 for attempt in range(5))

    def test_validation(self):
        with pytest.raises(HarnessError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(HarnessError, match="non-negative"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(HarnessError, match="non-negative"):
            RetryPolicy(max_delay=-1.0)


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(HarnessError, match="on_failure"):
            FaultPolicy(on_failure="explode")
        with pytest.raises(HarnessError, match="unit_deadline_s"):
            FaultPolicy(unit_deadline_s=0.0)
        with pytest.raises(HarnessError, match="retry_budget"):
            FaultPolicy(retry_budget=-1)

    def test_isolating(self):
        assert not FaultPolicy().isolating
        assert FaultPolicy(on_failure="isolate").isolating
        assert FaultPolicy(on_failure="skip").isolating


class TestFaultStateRetries:
    def test_retries_until_success(self):
        state = FaultState(
            FaultPolicy(retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        )
        unit = one_unit()
        calls = []

        def flaky(u):
            calls.append(u.uid)
            if len(calls) < 3:
                raise ModelError("transient")
            return "ok"

        assert state.run_unit(unit, flaky) == "ok"
        assert len(calls) == 3
        assert state.units_retried == 1
        assert state.retries == 2

    def test_exhausted_attempts_raise_in_raise_mode(self):
        state = FaultState(
            FaultPolicy(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        )
        with pytest.raises(ModelError, match="always"):
            state.run_unit(one_unit(), lambda u: (_ for _ in ()).throw(
                ModelError("always")
            ))

    def test_exhausted_attempts_isolate_to_failed_generation(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                on_failure="isolate",
            )
        )
        unit = one_unit()

        def always(u):
            raise ModelError("always down")

        out = state.run_unit(unit, always)
        assert isinstance(out, FailedGeneration)
        assert out.key == unit.key
        assert out.attempts == 2
        failure = out.unit_failure(unit.uid)
        assert failure.error_type == "ModelError"
        assert "always down" in failure.message

    def test_programming_errors_never_isolate(self):
        state = FaultState(FaultPolicy(on_failure="isolate"))

        def broken(u):
            raise KeyError("bug")

        with pytest.raises(KeyError):
            state.run_unit(one_unit(), broken)

    def test_nonretryable_model_error_fails_on_first_attempt(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=5, base_delay=0.0),
                on_failure="isolate",
            )
        )

        def fatal(u):
            raise GenerationError("empty prompt")

        out = state.run_unit(one_unit(), fatal)
        assert isinstance(out, FailedGeneration)
        assert out.attempts == 1
        assert state.retries == 0


class TestRetryBudget:
    def test_shared_budget_exhausts_across_units(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
                retry_budget=1,
                on_failure="isolate",
            )
        )
        unit = one_unit()
        calls = {"n": 0}

        def always(u):
            calls["n"] += 1
            raise ModelError("down")

        # first unit: 1 retry from the budget, then the budget is dry
        first = state.run_unit(unit, always)
        assert isinstance(first, FailedGeneration)
        assert calls["n"] == 2  # attempt + the one budgeted retry
        assert state.budget_exhausted
        # second unit: no retries left — fails after its first attempt
        calls["n"] = 0
        second = state.run_unit(unit, always)
        assert isinstance(second, FailedGeneration)
        assert calls["n"] == 1

    def test_zero_budget_disables_retries_entirely(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=4, base_delay=0.0),
                retry_budget=0,
                on_failure="isolate",
            )
        )
        out = state.run_unit(one_unit(), lambda u: (_ for _ in ()).throw(
            ModelError("down")
        ))
        assert isinstance(out, FailedGeneration)
        assert out.attempts == 1
        assert state.retries == 0


class TestDeadlines:
    def test_sync_deadline_becomes_deadline_error(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=50, base_delay=0.01),
                unit_deadline_s=0.03,
                on_failure="isolate",
            )
        )

        def slow_and_down(u):
            time.sleep(0.02)
            raise ModelError("down")

        out = state.run_unit(one_unit(), slow_and_down)
        assert isinstance(out, FailedGeneration)
        failure = out.unit_failure("uid")
        assert failure.error_type == "DeadlineExceededError"
        assert failure.elapsed_s > 0

    def test_sync_deadline_raises_in_raise_mode(self):
        state = FaultState(
            FaultPolicy(
                retry=RetryPolicy(max_attempts=50, base_delay=0.01),
                unit_deadline_s=0.02,
            )
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            state.run_unit(one_unit(), lambda u: (_ for _ in ()).throw(
                ModelError("down")
            ))
        assert excinfo.value.deadline_s == 0.02
        # the terminal deadline error chains the fault that burned the clock
        assert isinstance(excinfo.value.__cause__, ModelError)


class TestFaultScope:
    def test_scope_installs_and_clears(self):
        state = FaultState(FaultPolicy())
        assert active_faults() is None
        with fault_scope(state):
            assert active_faults() is state
        assert active_faults() is None

    def test_nested_scopes_rejected(self):
        with fault_scope(FaultState(FaultPolicy())):
            with pytest.raises(HarnessError, match="already active"):
                with fault_scope(FaultState(FaultPolicy())):
                    pass  # pragma: no cover

    def test_scope_clears_after_exception(self):
        with pytest.raises(RuntimeError):
            with fault_scope(FaultState(FaultPolicy())):
                raise RuntimeError("boom")
        assert active_faults() is None


class TestUnitFailurePayload:
    def test_roundtrip(self):
        failure = UnitFailure(
            uid="u0:task:sim/o3:0",
            key="abc123",
            model="sim/o3",
            error_type="ModelError",
            message="injected",
            attempts=3,
            elapsed_s=0.25,
            traceback_digest="deadbeef0123",
        )
        assert failure_from_payload(failure_payload(failure)) == failure

    def test_malformed_payload_rejected(self):
        with pytest.raises(HarnessError):
            failure_from_payload({"uid": "only"})
        with pytest.raises(HarnessError):
            failure_from_payload("not a mapping")

    def test_describe_mentions_the_essentials(self):
        failure = UnitFailure(
            uid="u0", key="k", model="sim/o3", error_type="ModelError",
            message="m", attempts=2, elapsed_s=0.1, traceback_digest="d",
        )
        text = failure.describe()
        assert "u0" in text and "ModelError" in text and "2 attempt(s)" in text


class TestUnitFailedError:
    def test_carries_failure_records(self):
        failure = UnitFailure(
            uid="u0", key="k", model="sim/o3", error_type="ModelError",
            message="m", attempts=1, elapsed_s=0.0, traceback_digest="d",
        )
        exc = UnitFailedError("quarantined", failures=(failure,))
        assert exc.failures == (failure,)
        assert UnitFailedError("empty").failures == ()


class TestThreadsOneCallPerUnit:
    def test_poisoned_requests_reach_the_provider_once(self):
        from repro.llm.api import register_model
        from repro.llm.types import ModelOutput, ModelUsage

        class Poisoned:
            """Fails one prompt, and offers a batch surface that fails
            whenever a poisoned prompt is in the batch."""

            name = "chaos/poisoned"

            def __init__(self):
                self.calls = []
                self.batch_calls = 0

            def generate(self, messages, config):
                prompt = messages[-1].content
                self.calls.append(prompt)
                if "BAD" in prompt:
                    raise ModelError("poisoned prompt")
                return ModelOutput(
                    model=self.name,
                    completion=f"echo:{prompt}",
                    usage=ModelUsage(input_tokens=1, output_tokens=1),
                    stop_reason="stop",
                )

            def generate_batch(self, requests):
                self.batch_calls += 1
                outputs = []
                errors = []
                for messages, config in requests:
                    try:
                        outputs.append(self.generate(messages, config))
                    except ModelError as exc:
                        errors.append(exc)
                if errors:
                    raise errors[0]
                return outputs

        provider = Poisoned()
        register_model(provider.name, lambda: provider)

        from repro.core.samples import Sample
        from repro.core.scorers import Score
        from repro.core.task import Task

        def scorer(completion, target):
            return Score(values={"len": float(len(completion))}, answer=completion)

        def make_task(prompts):
            return Task(
                name="salvage",
                dataset=[
                    Sample(id=p, input=p, target="t") for p in prompts
                ],
                scorer=scorer,
            )

        plan = Plan("salvage")
        plan.add_eval(
            make_task(["good-1", "BAD-2", "good-3"]),
            provider.name,
            epochs=1,
        )
        # one attempt per unit, as the policy says: the batch surface is
        # never used, and isolate quarantines only the poisoned unit
        faults = FaultPolicy(retry=RetryPolicy(max_attempts=1), on_failure="isolate")
        outcome = run(
            plan, config=RunConfig(executor=ThreadExecutor(4), faults=faults)
        )
        assert provider.batch_calls == 0
        assert sorted(provider.calls) == ["BAD-2", "good-1", "good-3"]
        assert [f.error_type for f in outcome.failures.values()] == ["ModelError"]
        assert outcome.stats.generated == 2

        # without a fault policy the poisoned unit's error surfaces
        with pytest.raises(ModelError, match="poisoned"):
            run(plan, config=RunConfig(executor=ThreadExecutor(4)))
        assert provider.batch_calls == 0
