"""Phase spans and the phase-profile view of a trace.

The instrumentation layer of the runtime: code wraps its phases in
``with span("generate"): ...``.  When a :class:`~repro.obs.trace.Tracer`
is active with an open trace, every span becomes an identified
:class:`~repro.obs.trace.SpanRecord`; otherwise ``span()`` returns a
shared no-op context manager after one module-global load and one
attribute check, so the un-instrumented runtime pays about a function
call per span, nothing more.

A :class:`PhaseProfile` is the aggregate view of a finished trace
(:meth:`~repro.obs.trace.Trace.profile`): span wall times summed per
nested name path, so ``cache-get/store-io/read`` is a store read
performed inside a cache lookup.  Spans nest *per thread*, so a profile
reads as a breakdown tree, not a flat soup of leaf timings; work handed
to another thread through :func:`~repro.obs.trace.carry_span` nests
under the span that handed it over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
    """Immutable span totals, keyed by nested phase path.

    Paths use ``/`` as the nesting separator (``cache-get/store-io/read``
    is a store read performed inside a cache lookup).
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


class _NullSpan:
    """Shared no-op context manager: the cost of telemetry when it's off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Record one phase in the active trace (a shared no-op when none).

    A tracer that is installed but between traces stays on the no-op
    fast path too.
    """
    tracer = _trace._active
    if tracer is None or tracer._state is None:
        return _NULL_SPAN
    return tracer.span(name)
