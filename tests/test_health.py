"""Circuit breakers: state machine, registry and fault-policy hooks.

Every timing-sensitive test drives a fake clock, so the full
closed → open → half-open → closed cycle runs without sleeping.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.errors import (
    BreakerOpenError,
    HarnessError,
    ModelError,
    RemoteStoreError,
    UnknownModelError,
)
from repro.llm.api import Model
from repro.runtime import (
    BreakerRegistry,
    FaultPolicy,
    HealthTracker,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    run,
)
from repro.runtime.health import _counts_against_breaker
from repro.testing import FaultPlan, faulty_models

from executor_paths import EXECUTOR_PATHS, executor_path

MODELS = ["o3", "llama-3.3-70b"]
SIM_MODELS = [f"sim/{m}" for m in MODELS]
SYSTEMS = ["adios2", "wilkins"]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracker(clock: FakeClock, **overrides) -> HealthTracker:
    options = dict(
        window=8,
        failure_threshold=0.5,
        min_samples=3,
        open_for_s=5.0,
        half_open_probes=1,
        clock=clock,
    )
    options.update(overrides)
    return HealthTracker("target-a", **options)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        tracker = make_tracker(FakeClock())
        assert tracker.state == "closed"
        assert not tracker.is_open
        assert tracker.allow()
        tracker.check()  # no raise

    def test_trips_open_at_threshold_with_min_samples(self):
        tracker = make_tracker(FakeClock())
        tracker.record_failure()
        tracker.record_failure()
        # two failures but min_samples=3: still closed
        assert tracker.state == "closed"
        tracker.record_failure()
        assert tracker.state == "open"
        assert tracker.is_open
        assert tracker.opened_total == 1
        assert not tracker.allow()
        with pytest.raises(BreakerOpenError, match="target-a"):
            tracker.check()

    def test_successes_keep_error_rate_under_threshold(self):
        tracker = make_tracker(FakeClock())
        for _ in range(5):
            tracker.record_success()
        tracker.record_failure()
        tracker.record_failure()
        # 2/7 < 0.5: closed
        assert tracker.state == "closed"
        assert tracker.error_rate() == pytest.approx(2 / 7)

    def test_rolling_window_forgets_old_outcomes(self):
        tracker = make_tracker(FakeClock(), window=4)
        tracker.record_failure()
        tracker.record_failure()
        # four successes push both failures out of the window
        for _ in range(4):
            tracker.record_success()
        assert tracker.error_rate() == 0.0
        assert tracker.state == "closed"

    def test_cooldown_moves_open_to_half_open(self):
        clock = FakeClock()
        tracker = make_tracker(clock, open_for_s=5.0)
        tracker.force_open()
        clock.advance(4.99)
        assert tracker.state == "open"
        clock.advance(0.02)
        assert tracker.state == "half-open"
        assert not tracker.is_open  # probes may flow

    def test_half_open_grants_exactly_the_probe_budget(self):
        clock = FakeClock()
        tracker = make_tracker(clock, half_open_probes=2)
        tracker.force_open()
        clock.advance(5.0)
        assert tracker.allow()
        assert tracker.allow()
        assert not tracker.allow()  # probes spent, outcome still pending

    def test_probe_success_closes_and_counts_rejoin(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        for _ in range(3):
            tracker.record_failure()
        clock.advance(5.0)
        assert tracker.allow()
        tracker.record_success()
        assert tracker.state == "closed"
        assert tracker.rejoined_total == 1
        # the bad history is forgotten: one new failure must not re-trip
        tracker.record_failure()
        assert tracker.state == "closed"

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        tracker.force_open()
        clock.advance(5.0)
        assert tracker.allow()
        tracker.record_failure()
        assert tracker.state == "open"
        assert tracker.opened_total == 2
        clock.advance(5.0)
        assert tracker.state == "half-open"

    def test_reset_restores_pristine_closed(self):
        clock = FakeClock()
        tracker = make_tracker(clock)
        tracker.force_open()
        tracker.reset()
        assert tracker.state == "closed"
        assert tracker.error_rate() == 0.0
        assert tracker.allow()

    def test_describe_reports_the_window(self):
        tracker = make_tracker(FakeClock())
        tracker.record_success()
        tracker.record_failure()
        desc = tracker.describe()
        assert desc["target"] == "target-a"
        assert desc["state"] == "closed"
        assert desc["window"] == 2
        assert desc["error_rate"] == pytest.approx(0.5)

    def test_invalid_knobs_rejected(self):
        clock = FakeClock()
        with pytest.raises(HarnessError, match="window"):
            make_tracker(clock, window=0)
        with pytest.raises(HarnessError, match="failure_threshold"):
            make_tracker(clock, failure_threshold=0.0)
        with pytest.raises(HarnessError, match="min_samples"):
            make_tracker(clock, min_samples=0)
        with pytest.raises(HarnessError, match="open_for_s"):
            make_tracker(clock, open_for_s=-1)
        with pytest.raises(HarnessError, match="half_open_probes"):
            make_tracker(clock, half_open_probes=0)


class TestBreakerRegistry:
    def test_get_creates_lazily_and_returns_the_same_tracker(self):
        registry = BreakerRegistry(window=4, min_samples=2)
        assert len(registry) == 0
        a = registry.get("a")
        assert registry.get("a") is a
        assert a.window == 4 and a.min_samples == 2
        assert len(registry) == 1

    def test_inspection_never_creates_trackers(self):
        registry = BreakerRegistry()
        assert registry.states() == {}
        assert registry.snapshot() == []
        assert len(registry) == 0

    def test_states_and_snapshot(self):
        registry = BreakerRegistry(min_samples=1, failure_threshold=0.5)
        registry.get("up").record_success()
        registry.get("down").record_failure()
        assert registry.states() == {"up": "closed", "down": "open"}
        snapshot = registry.snapshot()
        assert [entry["target"] for entry in snapshot] == ["down", "up"]


class TestFailureClassification:
    def test_transient_model_errors_count(self):
        assert _counts_against_breaker(ModelError("rate limited"))
        assert _counts_against_breaker(RemoteStoreError("link down"))
        assert _counts_against_breaker(OSError("connection reset"))

    def test_deterministic_and_refusal_errors_do_not(self):
        assert not _counts_against_breaker(UnknownModelError("typo/model"))
        assert not _counts_against_breaker(BreakerOpenError("refused"))
        assert not _counts_against_breaker(TypeError("bug"))


class TestFaultPolicyIntegration:
    def test_policy_validates_health_shape(self):
        with pytest.raises(HarnessError, match="BreakerRegistry"):
            FaultPolicy(health=object())
        FaultPolicy(health=BreakerRegistry())  # the real thing passes

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_attempt_outcomes_feed_the_models_breaker(self, path):
        # isolated transients (one strike per key, then a clean retry) sit
        # far below a 90% windowed error rate: breakers observe, never trip
        registry = BreakerRegistry(min_samples=4, failure_threshold=0.9)
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            health=registry,
        )
        fault_plan = FaultPlan(seed=4, transient_rate=0.2, transient_times=1)
        baseline = run_configuration(
            models=MODELS, systems=SYSTEMS, epochs=2,
            config=RunConfig(executor=SerialExecutor()),
        )
        executor = executor_path(path)
        with faulty_models(SIM_MODELS, fault_plan) as wrapped:
            grid = run_configuration(
                models=MODELS, systems=SYSTEMS, epochs=2,
                config=RunConfig(executor=executor, faults=policy),
            )
            assert sum(p.injected_total for p in wrapped.values()) > 0
        # breakers observed real traffic for every model and stayed closed
        # (isolated transients never cross the 50% windowed threshold)
        assert set(registry.states()) == set(SIM_MODELS)
        assert all(s == "closed" for s in registry.states().values())
        assert grid.cells == baseline.cells

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_open_breaker_refuses_attempts_with_retryable_error(self, path):
        registry = BreakerRegistry()
        registry.get("sim/o3").force_open()
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            health=registry,
        )
        plan = Plan("breaker-open")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
        executor = executor_path(path)
        with faulty_models(["sim/o3"], FaultPlan()) as wrapped:
            with pytest.raises(BreakerOpenError, match="sim/o3"):
                run(plan, config=RunConfig(executor=executor, faults=policy))
        # the refused attempts never reached the provider
        assert wrapped["sim/o3"].calls == 0
        # BreakerOpenError is retryable, so isolating policies quarantine
        assert RetryPolicy().is_retryable(BreakerOpenError("x"))

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_open_breaker_with_isolate_quarantines_instead(self, path):
        registry = BreakerRegistry()
        registry.get("sim/o3").force_open()
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            health=registry,
            on_failure="isolate",
        )
        plan = Plan("breaker-isolate")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
        plan.add_eval(configuration_task("adios2"), "sim/llama-3.3-70b", epochs=2)
        executor = executor_path(path)
        outcome = run(plan, config=RunConfig(executor=executor, faults=policy))
        assert outcome.stats.units_failed == 2  # the open model's epochs
        assert outcome.stats.generated == 2  # the healthy model's epochs
        failed_models = {f.model for f in outcome.failures.values()}
        assert failed_models == {"sim/o3"}


class _UnknownModelProvider:
    """Every call fails deterministically."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0

    def generate(self, messages, config):
        self.calls += 1
        raise UnknownModelError(f"{self.name} is not registered")


class TestBreakerOutcomesUnderPolicy:
    """What one model's breaker sees, attempt by attempt, on every path."""

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_successful_calls_each_record_one_success(self, path):
        registry = BreakerRegistry()
        plan = Plan("breaker-success")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=3)
        executor = executor_path(path)
        outcome = run(plan, config=RunConfig(
            executor=executor, faults=FaultPolicy(health=registry),
        ))
        assert outcome.stats.generated == 3
        described = registry.get("sim/o3").describe()
        # one outcome per provider call
        assert described["window"] == 3
        assert (described["state"], described["error_rate"]) == ("closed", 0.0)

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_sustained_failures_trip_and_refuse_without_calling(self, path):
        registry = BreakerRegistry(
            min_samples=2, failure_threshold=0.5, open_for_s=3600.0
        )
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            health=registry,
            on_failure="isolate",
        )
        plan = Plan("breaker-trip")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=4)
        executor = executor_path(path, max_concurrency=1)
        with faulty_models(["sim/o3"], FaultPlan(permanent_rate=1.0)) as wrapped:
            outcome = run(plan, config=RunConfig(executor=executor, faults=policy))
        tracker = registry.get("sim/o3")
        assert (tracker.state, tracker.opened_total) == ("open", 1)
        # two failed calls trip the breaker; every later attempt is
        # refused before it reaches the provider
        provider = wrapped["sim/o3"]
        assert provider.calls == 2
        assert outcome.stats.units_failed == 4
        error_types = [f.error_type for f in outcome.failures.values()]
        assert set(error_types) <= {"ModelError", "BreakerOpenError"}
        assert error_types.count("BreakerOpenError") >= 3

    @pytest.mark.parametrize("path", ["serial", "threads"])
    def test_deterministic_failures_never_trip(self, path):
        registry = BreakerRegistry(min_samples=1, failure_threshold=0.5)
        policy = FaultPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            health=registry,
            on_failure="isolate",
        )
        provider = _UnknownModelProvider(f"health/unknown-{path}")
        plan = Plan("breaker-deterministic")
        plan.add_eval(configuration_task("adios2"), Model(provider), epochs=3)
        executor = executor_path(path, max_concurrency=1)
        outcome = run(plan, config=RunConfig(executor=executor, faults=policy))
        assert outcome.stats.units_failed == 3
        assert {f.error_type for f in outcome.failures.values()} == {
            "UnknownModelError"
        }
        assert provider.calls == 3  # every unit reached the provider once
        tracker = registry.get(provider.name)
        assert (tracker.state, tracker.error_rate()) == ("closed", 0.0)


