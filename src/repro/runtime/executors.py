"""Pluggable executors: how a batch of work units reaches the model layer.

All executors consume units whose seeds travel *inside* the unit
(``WorkUnit.config.seed``), so execution order is irrelevant and every
executor produces bit-identical generations:

* :class:`SerialExecutor` — the reference implementation, one call at a
  time in plan order; the right choice for CPU-bound providers such as
  the offline simulator, where extra threads only contend for the GIL;
* :class:`AsyncExecutor` — an asyncio event loop keeping many provider
  calls in flight under a bounded-concurrency semaphore, for
  latency-bound providers (real API endpoints).  Every unit is one
  ``agenerate`` call.

Retry has one owner: the run's :class:`~repro.runtime.faults.FaultPolicy`
(``RunConfig(faults=...)``).  Without a fault scope every executor makes
one attempt per unit; with one, exactly the policy's attempts.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Awaitable, Protocol, Sequence, TypeVar, runtime_checkable

from repro.errors import HarnessError
from repro.llm.api import as_async, get_model
from repro.llm.types import ChatMessage, ModelOutput
from repro.obs import active_tracer, span
from repro.runtime.faults import FailedGeneration, active_faults
from repro.runtime.units import Generation, WorkUnit

__all__ = [
    "generate_unit",
    "Executor",
    "SerialExecutor",
    "AsyncExecutor",
]

_T = TypeVar("_T")


def _generation(unit: WorkUnit, output: ModelOutput, elapsed_s: float) -> Generation:
    return Generation(
        key=unit.key,
        model=unit.model,
        completion=output.completion,
        usage=output.usage,
        elapsed_s=elapsed_s,
    )


def _generate_once(unit: WorkUnit) -> Generation:
    """One raw model call for one unit; no retry, no policy."""
    started = time.perf_counter()
    output = get_model(unit.model).generate(unit.prompt, unit.config)
    return _generation(unit, output, time.perf_counter() - started)


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


async def _traced(name: str, awaitable: Awaitable[_T]) -> _T:
    """Await ``awaitable``, folding its wall time into the active trace.

    Interleaved tasks share the loop's thread, so the span is recorded
    post hoc (``record_span``) instead of riding the thread's
    span-nesting stack.  Its parent is the span enclosing the event
    loop (the runner's ``generate``), read before the first await.
    """
    tracer = active_tracer()
    if tracer is None:
        return await awaitable
    parent_id = tracer.current_span_id()
    start_unix = time.time()
    t0 = time.perf_counter()
    result = await awaitable
    tracer.record_span(
        name,
        start_unix=start_unix,
        duration_s=time.perf_counter() - t0,
        parent_id=parent_id,
    )
    return result


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


class AsyncExecutor:
    """Event-loop execution: many provider calls in flight at once.

    Each ``execute`` runs an asyncio loop with one task per unit, at most
    ``max_concurrency`` of them in flight under one semaphore.  Each unit
    resolves its provider through :func:`repro.llm.api.as_async`:
    async-native providers run on the loop directly, sync ones are
    offloaded to the adapter thread pool.

    Circuit breakers, retry, deadlines and isolation come from the
    run's :class:`~repro.runtime.faults.FaultPolicy`, applied per unit
    exactly as :class:`SerialExecutor` applies them; without a fault
    scope each unit gets one attempt.  Results are bit-identical to
    :class:`SerialExecutor` — seeds travel inside units, so in-flight
    interleaving cannot reorder randomness.

    The adapter thread pool is created lazily and persists across
    ``execute`` calls (the loop's own default executor is sized by CPU
    count and dies with each loop, which would both throttle the
    semaphore and pay thread startup per run).  ``close()`` or the
    context manager releases it; a plain ``execute`` after ``close()``
    reopens it, but re-entering a closed executor as a context manager
    raises :class:`~repro.errors.HarnessError` (the ``with`` block would
    otherwise silently resurrect a pool the caller just tore down).
    """

    def __init__(self, max_concurrency: int = 8) -> None:
        if max_concurrency <= 0:
            raise HarnessError(
                f"max_concurrency must be positive, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._closed = False
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-async",
                )
                self._closed = False
            return self._pool

    def close(self) -> None:
        """Shut the adapter pool down and join its threads (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "AsyncExecutor":
        with self._lock:
            if self._closed:
                raise HarnessError(
                    "AsyncExecutor was closed; create a new executor "
                    "instead of re-entering the closed one as a context "
                    "manager"
                )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def execute(self, units: Sequence[WorkUnit]) -> dict[str, Generation]:
        if not units:
            return {}
        import asyncio

        return asyncio.run(self._execute(list(units)))

    async def _execute(self, units: list[WorkUnit]) -> dict[str, Generation]:
        import asyncio

        pool = self._ensure_pool()
        semaphore = asyncio.Semaphore(self.max_concurrency)
        state = active_faults()
        produced: dict[str, Generation] = {}

        async def attempt(unit: WorkUnit) -> Generation:
            # one raw provider call: the FaultPolicy's unit of retry
            provider = as_async(get_model(unit.model).provider, pool)
            started = time.perf_counter()
            output = await provider.agenerate(
                [ChatMessage.user(unit.prompt)], unit.config
            )
            return _generation(unit, output, time.perf_counter() - started)

        async def per_unit(unit: WorkUnit) -> None:
            async with semaphore:
                if state is not None:
                    call = state.run_unit_async(unit, attempt)
                else:
                    call = attempt(unit)
                produced[unit.key] = await _traced("unit", call)

        await asyncio.gather(*(per_unit(unit) for unit in units))
        return produced

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AsyncExecutor(max_concurrency={self.max_concurrency})"
