"""Nestable phase timers with thread-safe aggregation.

The instrumentation layer of the runtime: code wraps its phases in
``with span("generate"): ...`` and, when a :class:`Profiler` is active,
every span's wall time is accumulated into a per-path total.  Spans
nest *per thread* — a ``span("store-io/read")`` opened while the same
thread is inside ``span("cache-get")`` is recorded under the path
``cache-get/store-io/read`` — so a profile reads as a breakdown tree,
not a flat soup of leaf timings.

Two design constraints shape the implementation:

* **Zero cost when off.**  ``span()`` is called on hot paths (every
  cache lookup, every store read); with no active profiler or tracer it
  returns a shared no-op context manager after two module-global loads,
  so the un-instrumented runtime pays ~a function call per span,
  nothing more.
* **Thread-safe when on.**  Worker threads (the async adapter pool)
  record concurrently; totals live behind one lock
  and each thread keeps its own nesting stack in ``threading.local``,
  so concurrent spans never corrupt each other's paths.

One ``span()`` call feeds **both** telemetry backends: the aggregating
:class:`Profiler` here and the identified-span :class:`~repro.obs.trace.Tracer`
(when one is active with an open trace) — call sites never choose.

A :class:`PhaseProfile` is an immutable snapshot of the totals.
Snapshots subtract (``later.subtract(earlier)``), which is how
:func:`repro.runtime.run` attaches a *per-run* profile to its
:class:`~repro.runtime.runner.RunStats` even when one global profiler
spans a whole multi-sweep script.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import HarnessError
from repro.obs import trace as _trace


@dataclass(frozen=True)
class PhaseTotals:
    """Aggregated wall time of one phase path."""

    calls: int
    total_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"calls": self.calls, "total_s": self.total_s, "max_s": self.max_s}


@dataclass(frozen=True)
class PhaseProfile:
    """Immutable snapshot of span totals, keyed by nested phase path.

    Paths use ``/`` as the nesting separator (``cache-get/store-io/read``
    is a store read performed inside a cache lookup).  ``subtract``
    yields the delta between two snapshots of the *same* profiler — the
    per-run breakdown; ``max_s`` in a delta is the later snapshot's
    maximum (a span maximum cannot be un-observed, so deltas report an
    upper bound for phases that were already warm).
    """

    phases: dict[str, PhaseTotals]

    def __bool__(self) -> bool:
        return bool(self.phases)

    def total_s(self, path: str) -> float:
        """Total seconds recorded under one exact path (0.0 if absent)."""
        entry = self.phases.get(path)
        return entry.total_s if entry is not None else 0.0

    def calls(self, path: str) -> int:
        entry = self.phases.get(path)
        return entry.calls if entry is not None else 0

    def subtract(self, earlier: "PhaseProfile") -> "PhaseProfile":
        """The activity between ``earlier`` and this snapshot."""
        phases: dict[str, PhaseTotals] = {}
        for path, totals in self.phases.items():
            prev = earlier.phases.get(path)
            calls = totals.calls - (prev.calls if prev else 0)
            total = totals.total_s - (prev.total_s if prev else 0.0)
            if calls > 0 or total > 1e-12:
                phases[path] = PhaseTotals(
                    calls=calls, total_s=max(total, 0.0), max_s=totals.max_s
                )
        return PhaseProfile(phases=phases)

    def merged(self, other: "PhaseProfile") -> "PhaseProfile":
        """Combine two profiles (e.g. several runs of one sweep)."""
        phases = dict(self.phases)
        for path, totals in other.phases.items():
            prev = phases.get(path)
            if prev is None:
                phases[path] = totals
            else:
                phases[path] = PhaseTotals(
                    calls=prev.calls + totals.calls,
                    total_s=prev.total_s + totals.total_s,
                    max_s=max(prev.max_s, totals.max_s),
                )
        return PhaseProfile(phases=phases)

    def as_dict(self) -> dict[str, Any]:
        return {
            "phases": {
                path: totals.as_dict() for path, totals in sorted(self.phases.items())
            }
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "PhaseProfile":
        if not isinstance(payload, dict) or not isinstance(
            payload.get("phases"), dict
        ):
            raise HarnessError(f"malformed phase profile payload: {payload!r:.120}")
        phases: dict[str, PhaseTotals] = {}
        for path, entry in payload["phases"].items():
            try:
                phases[path] = PhaseTotals(
                    calls=int(entry["calls"]),
                    total_s=float(entry["total_s"]),
                    max_s=float(entry["max_s"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise HarnessError(
                    f"malformed phase entry for {path!r}: {exc}"
                ) from None
        return PhaseProfile(phases=phases)


class Profiler:
    """Thread-safe span aggregator.

    One instance may be shared by any number of threads; each records
    spans under its own nesting stack.  Install as the process-wide
    active profiler with :func:`profiling` so library code's bare
    :func:`span` calls land here.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        # path -> [calls, total_s, max_s]; snapshot() freezes into PhaseTotals
        self._totals: dict[str, list] = {}
        self._tls = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one phase; nests under the thread's enclosing spans."""
        stack = self._stack()
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            with self._mu:
                entry = self._totals.get(path)
                if entry is None:
                    self._totals[path] = [1, elapsed, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    if elapsed > entry[2]:
                        entry[2] = elapsed

    def record(self, path: str, elapsed_s: float, *, calls: int = 1) -> None:
        """Fold an externally measured duration into the totals.

        For work whose wall time is measured elsewhere (a subprocess, a
        batch) but should still appear in the phase breakdown.
        """
        with self._mu:
            entry = self._totals.get(path)
            if entry is None:
                self._totals[path] = [calls, elapsed_s, elapsed_s]
            else:
                entry[0] += calls
                entry[1] += elapsed_s
                if elapsed_s > entry[2]:
                    entry[2] = elapsed_s

    def snapshot(self) -> PhaseProfile:
        """Immutable copy of the totals so far."""
        with self._mu:
            return PhaseProfile(
                phases={
                    path: PhaseTotals(calls=e[0], total_s=e[1], max_s=e[2])
                    for path, e in self._totals.items()
                }
            )

    def reset(self) -> None:
        with self._mu:
            self._totals.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Profiler(phases={len(self.snapshot().phases)})"


class _NullSpan:
    """Shared no-op context manager: the cost of telemetry when it's off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


class _DualSpan:
    """Feed one span to both the profiler and the tracer."""

    __slots__ = ("_profiled", "_traced")

    def __init__(self, profiled, traced) -> None:
        self._profiled = profiled
        self._traced = traced

    def __enter__(self):
        self._profiled.__enter__()
        return self._traced.__enter__()

    def __exit__(self, *exc_info: object) -> bool:
        try:
            self._traced.__exit__(*exc_info)
        finally:
            self._profiled.__exit__(*exc_info)
        return False


_NULL_SPAN = _NullSpan()
_active: Profiler | None = None
_active_mu = threading.Lock()


def active_profiler() -> Profiler | None:
    """The process-wide profiler bare :func:`span` calls record into."""
    return _active


def span(name: str):
    """Time one phase against the active telemetry (no-op when none).

    Dispatches to the active :class:`Profiler`, the active
    :class:`~repro.obs.trace.Tracer` (when a trace is open), or both.
    """
    profiler = _active
    tracer = _trace._active
    if tracer is not None and tracer._state is None:
        tracer = None  # armed but between traces: stay on the fast path
    if profiler is None:
        if tracer is None:
            return _NULL_SPAN
        return tracer.span(name)
    if tracer is None:
        return profiler.span(name)
    return _DualSpan(profiler.span(name), tracer.span(name))


@contextmanager
def profiling(profiler: Profiler | None = None) -> Iterator[Profiler]:
    """Install ``profiler`` (or a fresh one) as the active profiler.

    Nestable: the previous active profiler is restored on exit, so a
    scoped profile inside an already-profiled script just shadows the
    outer one for the duration of the block.
    """
    global _active
    prof = profiler if profiler is not None else Profiler()
    with _active_mu:
        previous, _active = _active, prof
    try:
        yield prof
    finally:
        with _active_mu:
            _active = previous
