"""The chaos fault ladders, re-run across the network.

:mod:`tests.test_chaos` proves the fault-tolerance layer heals around
injected provider faults against a local :class:`RunStore`.  This suite
runs the same ladders through a :class:`RemoteRunStore` backed by a
real in-process server — quarantine sets, resume linkage and healed
grids must come out bit-identical even when every record, manifest and
failure row crosses a socket, and even while the server itself refuses
a deterministic slice of requests as overload.
"""

from __future__ import annotations

import pytest

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.errors import UnitFailedError
from repro.runtime import (
    FaultPolicy,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    run,
)
from repro.serve import open_store
from repro.testing import (
    ChaosStoreServer,
    FaultPlan,
    InProcessServer,
    faulty_models,
)

from executor_paths import executor_path

MODELS = ["o3", "llama-3.3-70b"]
SIM_MODELS = [f"sim/{m}" for m in MODELS]
SYSTEMS = ["adios2", "wilkins"]

HEALING = FaultPolicy(retry=RetryPolicy(max_attempts=3, base_delay=0.0))

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


def small_sweep(executor=None, faults=None, store=None):
    return run_configuration(
        models=MODELS,
        systems=SYSTEMS,
        epochs=2,
        config=RunConfig(executor=executor, faults=faults, store=store),
    )


def resume_plan():
    plan = Plan("chaos-remote-resume")
    specs = {}
    for system in SYSTEMS:
        task = configuration_task(system)
        for model in SIM_MODELS:
            specs[(system, model)] = plan.add_eval(task, model, epochs=2)
    return plan, specs


class TestRemoteFaultLadders:
    def test_transient_faults_heal_bit_identically_over_the_wire(self, tmp_path):
        baseline = small_sweep(SerialExecutor())
        plan = FaultPlan(seed=4, transient_rate=0.2, transient_times=1)
        with InProcessServer(tmp_path / "served") as server:
            executor = executor_path("threads")
            with faulty_models(SIM_MODELS, plan) as wrapped:
                with open_store(server.url(), retry=FAST_RETRY) as remote:
                    grid = small_sweep(executor, faults=HEALING, store=remote)
                injected = sum(p.injected_total for p in wrapped.values())
        assert injected > 0, "fault seed never fired; pick a different seed"
        assert grid.cells == baseline.cells

    def test_quarantine_then_resume_heals_over_the_wire(self, tmp_path):
        """The full ladder: fail → quarantine → resume → heal, remotely."""
        isolate = FaultPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_failure="isolate",
        )
        fault_plan = FaultPlan(seed=6, transient_rate=0.3, transient_times=3)
        with InProcessServer(tmp_path / "served") as server:
            with faulty_models(SIM_MODELS, fault_plan):
                plan1, specs1 = resume_plan()
                with open_store(server.url(), retry=FAST_RETRY) as store:
                    config = RunConfig(store=store, faults=isolate)
                    first = run(plan1, config=config)
                    manifest = store.latest_manifest()
                assert first.stats.units_failed > 0
                failed_keys = {f.key for f in first.failures.values()}
                hit = 0
                for spec in specs1.values():
                    spec_uids = {
                        uid for _, uids in spec.sample_units for uid in uids
                    }
                    if spec_uids & set(first.failures):
                        with pytest.raises(
                            UnitFailedError, match="quarantined"
                        ):
                            first.eval_result(spec)
                        hit += 1
                assert hit > 0
                # the quarantine set crossed the wire onto the manifest
                assert manifest is not None
                assert {f.key for f in manifest.failures} == failed_keys

                # resume from a *fresh* client, like a new worker process
                plan2, specs2 = resume_plan()
                with open_store(server.url(), retry=FAST_RETRY) as store:
                    second = run(
                        plan2,
                        config=RunConfig(store=store, faults=isolate, resume_from=manifest.run_id),
                    )
        assert second.stats.units_failed == 0
        assert second.stats.generated == len(failed_keys)
        assert second.manifest.resumed_from == manifest.run_id
        assert not second.manifest.failures

        plan3, specs3 = resume_plan()
        reference = run(plan3)
        for cell, spec in specs2.items():
            healed = second.eval_result(spec)
            clean_eval = reference.eval_result(specs3[cell])
            assert [s.values for s in healed.samples[0].scores] == [
                s.values for s in clean_eval.samples[0].scores
            ]

    def test_ladder_survives_server_side_overload_too(self, tmp_path):
        """Provider faults *and* admission refusals at once, same grid."""
        baseline = small_sweep(SerialExecutor())
        provider_faults = FaultPlan(seed=4, transient_rate=0.2,
                                    transient_times=1)
        # ~2 in 5 requests answered with a typed overload refusal: the
        # sweep reads its scores in one batch per run, so it sends ~15
        # requests, and this rate keeps several of them refused
        overload = FaultPlan(seed=11, transient_rate=0.4, transient_times=1)
        root = tmp_path / "served"
        server = InProcessServer(
            root, server=ChaosStoreServer(root, overload_plan=overload)
        )
        try:
            with faulty_models(SIM_MODELS, provider_faults):
                with open_store(server.url(), retry=FAST_RETRY) as remote:
                    grid = small_sweep(faults=HEALING, store=remote)
            assert server.server.refused_requests > 0
        finally:
            server.stop()
        assert grid.cells == baseline.cells
