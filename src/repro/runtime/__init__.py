"""Parallel evaluation runtime: plan → cache → execute → score.

The runtime decouples *what* a sweep evaluates from *how* the model
calls run.  Experiments build a :class:`~repro.runtime.plan.Plan` of
immutable :class:`~repro.runtime.units.WorkUnit`\\ s (one per task ×
sample × model × epoch, seed included), and :func:`~repro.runtime.runner.run`
executes it on a pluggable :class:`~repro.runtime.executors.Executor`
with an optional content-addressed
:class:`~repro.runtime.cache.ResultCache` in front of the model layer.

Both executors — :class:`~repro.runtime.executors.SerialExecutor` and
:class:`~repro.runtime.executors.ThreadExecutor` — run each unit through
one funnel, :func:`~repro.runtime.executors.generate_unit`, and yield
bit-identical results because all randomness is derived from unit
content, never from execution order.

Quickstart::

    from repro.core.experiments import run_configuration
    from repro.runtime import InMemoryResultCache, RunConfig, ThreadExecutor

    config = RunConfig(executor=ThreadExecutor(16), cache=InMemoryResultCache())
    grid = run_configuration(config=config)
    rerun = run_configuration(config=config)
    # rerun performed zero model generations and is bit-identical
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.config import RunConfig
    from repro.runtime.cache import InMemoryResultCache, ResultCache, ScoreCache
    from repro.runtime.executors import Executor, SerialExecutor, ThreadExecutor, generate_unit
    from repro.runtime.faults import (
        FailedGeneration,
        FaultPolicy,
        FaultState,
        RetryPolicy,
        UnitFailure,
        active_faults,
        fault_scope,
    )
    from repro.runtime.health import BreakerRegistry, HealthTracker
    from repro.runtime.plan import EvalSpec, Plan
    from repro.runtime.runner import RunResult, run, score_key
    from repro.runtime.units import Generation, UnitResult, WorkUnit, generation_key
    from repro.stats import RunStats

_EXPORTS = {  # public name -> defining module
    "Plan": "repro.runtime.plan",
    "EvalSpec": "repro.runtime.plan",
    "WorkUnit": "repro.runtime.units",
    "Generation": "repro.runtime.units",
    "UnitResult": "repro.runtime.units",
    "generation_key": "repro.runtime.units",
    "generate_unit": "repro.runtime.executors",
    "Executor": "repro.runtime.executors",
    "SerialExecutor": "repro.runtime.executors",
    "ThreadExecutor": "repro.runtime.executors",
    "RetryPolicy": "repro.runtime.faults",
    "FaultPolicy": "repro.runtime.faults",
    "FaultState": "repro.runtime.faults",
    "UnitFailure": "repro.runtime.faults",
    "FailedGeneration": "repro.runtime.faults",
    "fault_scope": "repro.runtime.faults",
    "active_faults": "repro.runtime.faults",
    "HealthTracker": "repro.runtime.health",
    "BreakerRegistry": "repro.runtime.health",
    "ResultCache": "repro.runtime.cache",
    "InMemoryResultCache": "repro.runtime.cache",
    "ScoreCache": "repro.runtime.cache",
    "score_key": "repro.runtime.runner",
    "run": "repro.runtime.runner",
    "RunConfig": "repro.runtime.config",
    "RunResult": "repro.runtime.runner",
    "RunStats": "repro.stats",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
