"""Chaos suite: the fault-tolerance layer under deterministic injected fire.

Every test here injects faults from a fixed :class:`repro.testing.FaultPlan`
seed, so "random" failures strike the same requests on every run and in
every executor — the suite is as reproducible as the harness it audits.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.errors import UnitFailedError
from repro.llm.types import GenerateConfig
from repro.persist import RunStore
from repro.runtime import (
    FaultPolicy,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    ThreadExecutor,
    run,
)
from repro.testing import (
    FaultPlan,
    FaultyProvider,
    FaultyStore,
    faulty_models,
)

from executor_paths import EXECUTOR_PATHS, executor_path

MODELS = ["o3", "llama-3.3-70b"]
SIM_MODELS = [f"sim/{m}" for m in MODELS]
SYSTEMS = ["adios2", "wilkins"]

# heals within a run: up to 2 consecutive strikes, 3 attempts, no sleeping
HEALING = FaultPolicy(retry=RetryPolicy(max_attempts=3, base_delay=0.0))


def small_sweep(executor=None, faults=None, store=None):
    return run_configuration(
        models=MODELS,
        systems=SYSTEMS,
        epochs=2,
        config=RunConfig(executor=executor, faults=faults, store=store),
    )


def resume_plan():
    """A fresh plan over the same cells as :func:`small_sweep`."""
    plan = Plan("chaos-resume")
    specs = {}
    for system in SYSTEMS:
        task = configuration_task(system)
        for model in SIM_MODELS:
            specs[(system, model)] = plan.add_eval(task, model, epochs=2)
    return plan, specs


class TestFaultPlanDeterminism:
    def test_roll_is_pure_and_uniformish(self):
        plan = FaultPlan(seed=7)
        rolls = [plan.roll("transient", f"key-{i}") for i in range(200)]
        assert rolls == [plan.roll("transient", f"key-{i}") for i in range(200)]
        assert all(0.0 <= r < 1.0 for r in rolls)
        # seeds and kinds decorrelate the stream
        assert rolls != [FaultPlan(seed=8).roll("transient", f"key-{i}")
                         for i in range(200)]
        assert rolls != [plan.roll("permanent", f"key-{i}") for i in range(200)]
        # a 20% plan strikes roughly 20% of keys (deterministically)
        plan20 = FaultPlan(seed=7, transient_rate=0.2)
        struck = sum(plan20.strikes("transient", f"key-{i}") for i in range(500))
        assert 60 <= struck <= 140

    def test_strike_consumption_is_bounded(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, transient_times=2)
        provider = FaultyProvider(_echo_provider(), plan)
        msgs = [_msg("hello")]
        cfg = GenerateConfig(seed=0)
        for _ in range(2):
            with pytest.raises(Exception, match="transient"):
                provider.generate(msgs, cfg)
        # third call passes through: the schedule is exhausted for this key
        assert provider.generate(msgs, cfg).completion == "hello"
        assert provider.injected["transient"] == 2


def _msg(content):
    from repro.llm.types import ChatMessage

    return ChatMessage.user(content)


def _echo_provider():
    from repro.llm.types import ModelOutput, ModelUsage

    class Echo:
        name = "chaos/echo"

        def generate(self, messages, config):
            return ModelOutput(
                model=self.name,
                completion=messages[-1].content,
                usage=ModelUsage(input_tokens=1, output_tokens=1),
                stop_reason="stop",
            )

    return Echo()


class TestTransientFaultsBitIdentical:
    """~20% injected transient faults; grids must not change by one bit."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return small_sweep(SerialExecutor())

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_grid_identical_under_fire(self, baseline, path):
        plan = FaultPlan(seed=4, transient_rate=0.2, transient_times=1)
        executor = executor_path(path)
        with faulty_models(SIM_MODELS, plan) as wrapped:
            grid = small_sweep(executor, faults=HEALING)
            injected = sum(p.injected_total for p in wrapped.values())
        assert injected > 0, "fault seed never fired; pick a different seed"
        assert grid.cells == baseline.cells

    def test_latency_spikes_change_nothing(self, baseline):
        plan = FaultPlan(seed=3, latency_rate=0.5, latency_s=0.001)
        with faulty_models(SIM_MODELS, plan) as wrapped:
            grid = small_sweep(ThreadExecutor(max_concurrency=6), faults=HEALING)
            assert sum(p.injected["latency"] for p in wrapped.values()) > 0
        assert grid.cells == baseline.cells

    def test_truncated_outputs_are_retried_not_cached(self, baseline):
        plan = FaultPlan(seed=5, truncate_rate=0.3, transient_times=1)
        with faulty_models(SIM_MODELS, plan) as wrapped:
            grid = small_sweep(SerialExecutor(), faults=HEALING)
            assert sum(p.injected["truncate"] for p in wrapped.values()) > 0
        assert grid.cells == baseline.cells


class TestIsolationAndResume:
    """Quarantine under `isolate`, then one resumed pass heals everything."""

    def test_quarantine_then_resume_heals_exactly_the_failed_units(self, tmp_path):
        isolate = FaultPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_failure="isolate",
        )
        # 3 consecutive strikes vs 2 attempts/run: run 1 quarantines the
        # struck keys, run 2's first attempt absorbs the last strike and
        # its retry succeeds
        fault_plan = FaultPlan(seed=6, transient_rate=0.3, transient_times=3)
        store = RunStore(tmp_path / "store")
        with faulty_models(SIM_MODELS, fault_plan):
            plan1, specs1 = resume_plan()
            config = RunConfig(store=store, faults=isolate)
            first = run(plan1, config=config)
            assert first.stats.units_failed > 0
            assert first.stats.generated + len(first.failures) == len(plan1)
            failed_keys = {f.key for f in first.failures.values()}
            # quarantined evals raise; untouched evals assemble fine
            hit, clean = 0, 0
            for spec in specs1.values():
                spec_uids = {
                    uid for _, uids in spec.sample_units for uid in uids
                }
                if spec_uids & set(first.failures):
                    with pytest.raises(UnitFailedError, match="quarantined"):
                        first.eval_result(spec)
                    hit += 1
                else:
                    first.eval_result(spec)
                    clean += 1
            assert hit > 0 and clean > 0
            # the failure set is durable: recorded on the manifest
            manifest = store.latest_manifest()
            assert manifest is not None
            assert {f.key for f in manifest.failures} == failed_keys

            plan2, specs2 = resume_plan()
            second = run(
                plan2,
                config=RunConfig(store=store, faults=isolate, resume_from=manifest.run_id),
            )
        # the resumed run re-executes exactly the quarantined units...
        assert second.stats.units_failed == 0
        assert second.stats.generated == len(failed_keys)
        assert second.manifest.resumed_from == manifest.run_id
        assert not second.manifest.failures
        # ...and the healed results are bit-identical to a fault-free run
        plan3, specs3 = resume_plan()
        reference = run(plan3)
        for cell, spec in specs2.items():
            healed = second.eval_result(spec)
            clean_eval = reference.eval_result(specs3[cell])
            assert [s.values for s in healed.samples[0].scores] == [
                s.values for s in clean_eval.samples[0].scores
            ]

    def test_skip_mode_yields_partial_results(self):
        skip = FaultPolicy(
            retry=RetryPolicy(max_attempts=1), on_failure="skip",
        )
        fault_plan = FaultPlan(seed=6, transient_rate=0.3, transient_times=9)
        with faulty_models(SIM_MODELS, fault_plan):
            plan, specs = resume_plan()
            config = RunConfig(faults=skip)
            outcome = run(plan, config=config)
        assert outcome.stats.units_failed > 0
        # no eval raises; quarantined epochs are simply absent
        total = sum(
            len(outcome.eval_result(spec).samples[0].scores)
            for spec in specs.values()
            if outcome.eval_result(spec).samples
        )
        assert total == len(plan) - outcome.stats.units_failed

    def test_resume_from_requires_matching_plan(self, tmp_path):
        from repro.errors import HarnessError

        store = RunStore(tmp_path / "store")
        plan1, _ = resume_plan()
        config = RunConfig(store=store)
        first = run(plan1, config=config)
        other = Plan("different")
        other.add_eval(configuration_task("henson"), "sim/o3", epochs=1)
        config = RunConfig(store=store, resume_from=first.manifest.run_id)
        with pytest.raises(HarnessError, match="different plan"):
            run(other, config=config)
        config = RunConfig(store=store, resume_from="run-does-not-exist")
        with pytest.raises(HarnessError, match="has no recorded run"):
            run(plan1, config=config)


class TestStoreFaults:
    def test_clean_append_failure_loses_nothing_acked(self, tmp_path):
        store = FaultyStore(tmp_path / "store", fail_appends=[1])
        gen = _generation("k1", "first")
        store.put_generation(gen)
        with pytest.raises(OSError, match="injected append failure"):
            store.put_generation(_generation("k2", "second"))
        # the store object stays usable and the failed write left no trace
        store.put_generation(_generation("k3", "third"))
        store.close()
        reopened = RunStore(tmp_path / "store")
        assert reopened.get_generation("k1").completion == "first"
        assert reopened.get_generation("k2") is None
        assert reopened.get_generation("k3").completion == "third"
        assert reopened.verify().clean
        reopened.close()

    def test_torn_append_heals_on_next_write_and_reopen(self, tmp_path):
        store = FaultyStore(tmp_path / "store", torn_appends=[1])
        store.put_generation(_generation("k1", "first"))
        with pytest.raises(OSError, match="injected torn append"):
            store.put_generation(_generation("k2", "second"))
        # the next append terminates the torn tail before writing, so the
        # new record lands clean
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            store.put_generation(_generation("k3", "third"))
            store.close()
            reopened = RunStore(tmp_path / "store")
            assert reopened.get_generation("k1").completion == "first"
            assert reopened.get_generation("k2") is None
            assert reopened.get_generation("k3").completion == "third"
            report = reopened.verify()
            # the healed tear shows up as exactly one corrupt record...
            assert not report.clean
            # ...which GC sweeps away for good
            reopened.gc()
            assert reopened.verify().clean
            reopened.close()

    def test_store_backed_sweep_survives_one_append_fault(self, tmp_path):
        # a mid-run store hiccup under an isolating policy must not take
        # down the sweep wholesale: the runner's cache writes go through
        # put_generations once per run, so fail the *scores* append and
        # assert the generations all landed
        store = FaultyStore(tmp_path / "store", fail_appends=[999])
        grid = small_sweep(SerialExecutor(), store=store)
        baseline = small_sweep(SerialExecutor())
        assert grid.cells == baseline.cells
        store.close()


def _generation(key, completion):
    from repro.llm.types import ModelUsage
    from repro.runtime.units import Generation

    return Generation(
        key=key,
        model="sim/o3",
        completion=completion,
        usage=ModelUsage(input_tokens=1, output_tokens=1),
    )
