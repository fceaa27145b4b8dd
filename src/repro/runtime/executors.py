"""Pluggable executors: how a batch of work units reaches the model layer.

All executors consume units whose seeds travel *inside* the unit
(``WorkUnit.config.seed``), so execution order is irrelevant and every
executor produces bit-identical generations:

* :class:`SerialExecutor` — the reference implementation, one call at a
  time in plan order; the right choice for CPU-bound providers such as
  the offline simulator, where extra threads only contend for the GIL;
* :class:`ThreadExecutor` — up to ``max_concurrency`` units in flight
  on a thread pool, for latency-bound providers (real API endpoints).

Both run every unit through :func:`generate_unit`, the one funnel where
the fault policy and the ``unit`` span apply.

Retry has one owner: the run's :class:`~repro.runtime.faults.FaultPolicy`
(``RunConfig(faults=...)``).  Without a fault scope every executor makes
one attempt per unit; with one, exactly the policy's attempts.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Protocol, Sequence, runtime_checkable

from repro.errors import HarnessError
from repro.llm.api import get_model
from repro.obs import carry_span, span
from repro.runtime.faults import FailedGeneration, active_faults
from repro.runtime.units import Generation, WorkUnit

__all__ = [
    "generate_unit",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
]


def _generate_once(unit: WorkUnit) -> Generation:
    """One raw model call for one unit; no retry, no policy."""
    started = time.perf_counter()
    output = get_model(unit.model).generate(unit.prompt, unit.config)
    return Generation(
        key=unit.key,
        model=unit.model,
        completion=output.completion,
        usage=output.usage,
        elapsed_s=time.perf_counter() - started,
    )


def generate_unit(unit: WorkUnit) -> "Generation | FailedGeneration":
    """Run one unit's model call; pure function of the unit's content.

    When a :func:`~repro.runtime.faults.fault_scope` is active, the call
    runs under its :class:`~repro.runtime.faults.FaultPolicy` —
    deterministic retry/backoff, per-unit deadline, run-shared retry
    budget, and failure isolation (a quarantined unit comes back as a
    :class:`~repro.runtime.faults.FailedGeneration` instead of raising).
    Without a scope this is exactly the raw provider call it always was.

    Each call is wrapped in a ``span("unit")``, retries included.  The
    constant span name keeps phase profiles compact; traces still record
    one identified span per unit.
    """
    with span("unit"):
        state = active_faults()
        if state is not None:
            return state.run_unit(unit, _generate_once)
        return _generate_once(unit)


@runtime_checkable
class Executor(Protocol):
    """What an execution backend must implement.

    ``execute`` receives units with pairwise-distinct generation keys
    (the runner deduplicates and consults the cache first) and returns
    one generation per key.
    """

    def execute(
        self, units: Sequence[WorkUnit]
    ) -> dict[str, Generation]:  # pragma: no cover - protocol
        ...


class SerialExecutor:
    """One generation at a time, in plan order (the determinism baseline)."""

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        return {unit.key: generate_unit(unit) for unit in units}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ThreadExecutor:
    """Up to ``max_concurrency`` units in flight on a thread pool.

    For latency-bound providers (real API endpoints), whose blocking
    calls release the GIL while they wait.  Each unit runs through
    :func:`generate_unit`, the funnel :class:`SerialExecutor` uses, so
    retry, deadlines, isolation and breakers come from the run's
    :class:`~repro.runtime.faults.FaultPolicy` exactly as there, and the
    grid is bit-identical to the serial one (seeds travel inside units).

    The pool lives for one ``execute`` call.  When a unit raises (in
    ``raise`` mode, or a programming error), no further unit starts and
    the error propagates once the running ones finish.
    """

    def __init__(self, max_concurrency: int = 8) -> None:
        if max_concurrency <= 0:
            raise HarnessError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        generate = carry_span(generate_unit)  # unit spans nest under "generate"
        failed = threading.Event()

        def work(unit: WorkUnit) -> "Generation | FailedGeneration | None":
            # a raising unit sets the flag before its worker takes the
            # next unit, so no unit starts after one raised, however fast
            # the units fail (cancel_futures alone races the workers)
            if failed.is_set():
                return None
            try:
                return generate(unit)
            except BaseException:
                failed.set()
                raise

        pool = concurrent.futures.ThreadPoolExecutor(
            self.max_concurrency, thread_name_prefix="repro-unit"
        )
        try:
            futures = [pool.submit(work, unit) for unit in units]
            concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_EXCEPTION
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        # units start in plan order, so the error raises here before any
        # unit it stopped is read
        return {unit.key: future.result() for unit, future in zip(units, futures)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadExecutor(max_concurrency={self.max_concurrency})"
