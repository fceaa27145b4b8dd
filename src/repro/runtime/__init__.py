"""Parallel evaluation runtime: plan → cache → execute → score.

The runtime decouples *what* a sweep evaluates from *how* the model
calls run.  Experiments build a :class:`~repro.runtime.plan.Plan` of
immutable :class:`~repro.runtime.units.WorkUnit`\\ s (one per task ×
sample × model × epoch, seed included), and :func:`~repro.runtime.runner.run`
executes it on a pluggable :class:`~repro.runtime.executors.Executor`
with an optional content-addressed
:class:`~repro.runtime.cache.ResultCache` in front of the model layer.

Every executor yields bit-identical results because all randomness is
derived from unit content, never from execution order.

Quickstart::

    from repro.core.experiments import run_configuration
    from repro.runtime import AsyncExecutor, InMemoryResultCache, RunConfig

    config = RunConfig(executor=AsyncExecutor(16), cache=InMemoryResultCache())
    grid = run_configuration(config=config)
    rerun = run_configuration(config=config)
    # rerun performed zero model generations and is bit-identical
"""

from repro.runtime.config import RunConfig
from repro.runtime.cache import (
    InMemoryResultCache,
    ResultCache,
    ScoreCache,
)
from repro.runtime.executors import (
    AsyncExecutor,
    Executor,
    SerialExecutor,
    generate_unit,
)
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
from repro.runtime.runner import RunResult, RunStats, run, score_key
from repro.runtime.units import Generation, UnitResult, WorkUnit, generation_key

__all__ = [
    "Plan",
    "EvalSpec",
    "WorkUnit",
    "Generation",
    "UnitResult",
    "generation_key",
    "generate_unit",
    "Executor",
    "SerialExecutor",
    "AsyncExecutor",
    "RetryPolicy",
    "FaultPolicy",
    "FaultState",
    "UnitFailure",
    "FailedGeneration",
    "fault_scope",
    "active_faults",
    "HealthTracker",
    "BreakerRegistry",
    "ResultCache",
    "InMemoryResultCache",
    "ScoreCache",
    "score_key",
    "run",
    "RunConfig",
    "RunResult",
    "RunStats",
]
