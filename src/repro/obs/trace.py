"""Distributed tracing: spans with identities, not just totals.

Every traced run gets a **trace id**, every span gets a **span id** and
a **parent id**, and spans carry wall-clock start times and durations —
enough to reconstruct the run as a timeline and export it as Chrome
trace-event JSON (``chrome://tracing`` / https://ui.perfetto.dev), and
enough to answer "where did the wall time go, in aggregate":
:meth:`Trace.profile` sums a finished trace's spans by nested name path
into a :class:`~repro.obs.spans.PhaseProfile`.

Spans cross process boundaries by value, not by reference: the
:mod:`repro.serve` store server builds plain span *dicts* (stamped with
its own pid and wall clock) that the client process folds into its live
trace via :meth:`Tracer.record_remote`.  A ``trace`` field on
request frames (see :mod:`repro.serve.protocol`) carries the trace id
and the client span id across the wire so the server's spans parent the
client span that caused them.

Tracing is **zero cost when off**: with no active tracer, or one
installed but between traces, :func:`repro.obs.span` returns a shared
no-op.  Span volume is bounded by ``max_spans`` — beyond the cap new
spans are counted as ``dropped`` rather than accumulated, so tracing a
huge sweep cannot exhaust memory (and a profile of such a trace is a
lower bound).
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from repro.errors import HarnessError

if TYPE_CHECKING:  # repro.obs.spans imports this module at load time
    from repro.obs.spans import PhaseProfile

TRACE_SCHEMA = "repro.trace/1"

_A = TypeVar("_A")
_R = TypeVar("_R")

#: Default per-trace span cap; beyond it spans are dropped (and counted).
MAX_SPANS = 20_000


def _new_id() -> str:
    """A fresh 16-hex-char id, unique enough across processes."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh span id, for callers that need the id before the span is
    recorded (e.g. to propagate it as a parent over the wire first)."""
    return _new_id()


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: identity, lineage, and wall-clock placement."""

    span_id: str
    parent_id: str | None
    name: str
    start_unix: float
    duration_s: float
    pid: int
    thread: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "thread": self.thread,
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "SpanRecord":
        if not isinstance(payload, dict):
            raise HarnessError(f"malformed span record: {payload!r:.80}")
        try:
            parent = payload.get("parent_id")
            return SpanRecord(
                span_id=str(payload["span_id"]),
                parent_id=None if parent is None else str(parent),
                name=str(payload["name"]),
                start_unix=float(payload["start_unix"]),
                duration_s=float(payload["duration_s"]),
                pid=int(payload.get("pid", 0)),
                thread=str(payload.get("thread", "?")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HarnessError(f"malformed span record: {exc}") from None


def make_span_dict(
    name: str,
    *,
    parent_id: str | None,
    start_unix: float,
    duration_s: float,
    span_id: str | None = None,
) -> dict[str, Any]:
    """Build a remote-side span dict (worker / server processes).

    The producing process stamps its own pid and thread name; the
    consuming process folds the dict into its live trace with
    :meth:`Tracer.record_remote`.
    """
    return {
        "span_id": span_id if span_id is not None else _new_id(),
        "parent_id": parent_id,
        "name": name,
        "start_unix": start_unix,
        "duration_s": duration_s,
        "pid": os.getpid(),
        "thread": threading.current_thread().name,
    }


@dataclass(frozen=True)
class Trace:
    """An immutable, completed trace: one run's spans plus identity."""

    trace_id: str
    name: str
    spans: tuple[SpanRecord, ...]
    dropped: int = 0

    def __bool__(self) -> bool:
        return bool(self.spans)

    @property
    def root(self) -> SpanRecord | None:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA,
            "trace_id": self.trace_id,
            "name": self.name,
            "dropped": self.dropped,
            "spans": [span.as_dict() for span in self.spans],
        }

    @staticmethod
    def from_dict(payload: dict[str, Any]) -> "Trace":
        if not isinstance(payload, dict) or "trace_id" not in payload:
            raise HarnessError(f"malformed trace payload: {payload!r:.120}")
        raw = payload.get("spans") or []
        if not isinstance(raw, list):
            raise HarnessError("malformed trace payload: spans is not a list")
        try:
            dropped = int(payload.get("dropped") or 0)
        except (TypeError, ValueError):
            raise HarnessError("malformed trace payload: dropped is not a count") from None
        return Trace(
            trace_id=str(payload["trace_id"]),
            name=str(payload.get("name", "?")),
            spans=tuple(SpanRecord.from_dict(entry) for entry in raw),
            dropped=dropped,
        )

    def profile(self) -> "PhaseProfile":
        """Span wall times summed by nested name path.

        A span's path is its parent's path plus its own name
        (``cache-get/store-io/read``), read off the parent links.  The
        root span is left out, so its children are the top-level
        phases; a span whose parent is not in the trace (e.g. a remote
        span whose client-side parent was dropped) counts as top-level
        too.  When :attr:`dropped` is non-zero the totals are lower
        bounds.
        """
        from repro.obs.spans import PhaseProfile, PhaseTotals  # late: import cycle

        root = self.root
        by_id = {span.span_id: span for span in self.spans if span is not root}

        def path_of(span: SpanRecord) -> str:
            names, seen = [span.name], {span.span_id}
            parent = by_id.get(span.parent_id)
            # the seen set ends the walk at a parent-link cycle
            while parent is not None and parent.span_id not in seen:
                names.append(parent.name)
                seen.add(parent.span_id)
                parent = by_id.get(parent.parent_id)
            return "/".join(reversed(names))

        totals: dict[str, list] = {}  # path -> [calls, total_s, max_s]
        for span in self.spans:
            if span is root:
                continue
            path = path_of(span)
            entry = totals.get(path)
            if entry is None:
                totals[path] = [1, span.duration_s, span.duration_s]
            else:
                entry[0] += 1
                entry[1] += span.duration_s
                entry[2] = max(entry[2], span.duration_s)
        return PhaseProfile(
            phases={
                path: PhaseTotals(calls=e[0], total_s=e[1], max_s=e[2])
                for path, e in totals.items()
            }
        )

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (load in chrome://tracing / Perfetto).

        Spans become ``"X"`` (complete) events with microsecond
        timestamps; one lane per (pid, thread), named via ``"M"``
        metadata events so the viewer shows real thread names.
        """
        lanes: dict[tuple[int, str], int] = {}
        events: list[dict[str, Any]] = []
        for span in self.spans:
            lane = lanes.setdefault((span.pid, span.thread), len(lanes) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start_unix * 1e6,
                    "dur": max(span.duration_s, 1e-7) * 1e6,
                    "pid": span.pid,
                    "tid": lane,
                    "args": {
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "trace_id": self.trace_id,
                    },
                }
            )
        for (pid, thread), lane in lanes.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": lane,
                    "args": {"name": thread},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id, "trace_name": self.name},
        }

    def write_chrome(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.chrome_trace()))

    def describe(self) -> str:
        """One-glance summary: id, span count, pids, slowest spans."""
        pids = sorted({span.pid for span in self.spans})
        by_time = sorted(self.spans, key=lambda s: -s.duration_s)[:5]
        lines = [
            f"trace {self.trace_id}  {self.name!r}",
            f"  spans       {len(self.spans)}"
            + (f"  (+{self.dropped} dropped)" if self.dropped else ""),
            f"  processes   {len(pids)}  {pids}",
        ]
        root = self.root
        if root is not None:
            lines.append(f"  wall        {root.duration_s:.3f}s")
        if by_time:
            lines.append("  slowest spans:")
            for span in by_time:
                lines.append(
                    f"    {span.duration_s * 1000:>9.2f} ms  {span.name}"
                    f"  (pid {span.pid}, {span.thread})"
                )
        return "\n".join(lines)


class _TraceState:
    """Mutable accumulator behind one in-flight trace."""

    __slots__ = ("trace_id", "name", "root_id", "started_unix", "_t0",
                 "_mu", "_spans", "_dropped", "_closed", "max_spans")

    def __init__(self, name: str, *, max_spans: int) -> None:
        self.trace_id = _new_id()
        self.name = name
        self.root_id = _new_id()
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._mu = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._dropped = 0
        self._closed = False
        self.max_spans = max_spans

    def add(self, span: SpanRecord) -> None:
        with self._mu:
            if self._closed:
                return
            if len(self._spans) >= self.max_spans:
                self._dropped += 1
            else:
                self._spans.append(span)

    def close(self) -> Trace:
        wall = time.perf_counter() - self._t0
        with self._mu:
            self._closed = True
            spans = list(self._spans)
        spans.append(
            SpanRecord(
                span_id=self.root_id,
                parent_id=None,
                name=self.name,
                start_unix=self.started_unix,
                duration_s=wall,
                pid=os.getpid(),
                thread=threading.current_thread().name,
            )
        )
        spans.sort(key=lambda s: s.start_unix)
        return Trace(
            trace_id=self.trace_id,
            name=self.name,
            spans=tuple(spans),
            dropped=self._dropped,
        )


class Tracer:
    """Collects identified spans for one trace at a time.

    A tracer is installed process-wide with :func:`tracing`; while a
    trace is open (:meth:`begin_trace` … :meth:`end_trace`) every bare
    :func:`repro.obs.span` records a :class:`SpanRecord` here.  Between
    traces the tracer is inert.  Only one trace may be open at a time —
    a nested ``begin_trace`` returns ``None`` and the inner run's spans
    simply fold into the outer trace.

    ``on_finish`` (optional) is called with each completed
    :class:`Trace` as :meth:`end_trace` freezes it — the hook for
    callers that arm tracing around code they do not own (e.g. a script
    collecting every run's trace without a store).  Hook failures
    propagate to the ``end_trace`` caller.
    """

    def __init__(
        self,
        *,
        max_spans: int = MAX_SPANS,
        on_finish: "Any | None" = None,
    ) -> None:
        self._mu = threading.Lock()
        self._state: _TraceState | None = None
        self._tls = threading.local()
        self.max_spans = max_spans
        self.on_finish = on_finish

    # -- trace lifecycle -------------------------------------------------

    def begin_trace(self, name: str) -> _TraceState | None:
        """Open a trace; returns a handle, or None if one is already open."""
        with self._mu:
            if self._state is not None:
                return None
            state = _TraceState(name, max_spans=self.max_spans)
            self._state = state
            return state

    def end_trace(self, handle: _TraceState) -> Trace:
        """Close the trace opened by ``handle`` and freeze its spans."""
        with self._mu:
            if self._state is handle:
                self._state = None
        trace = handle.close()
        if self.on_finish is not None:
            self.on_finish(trace)
        return trace

    def current_trace_id(self) -> str | None:
        state = self._state
        return state.trace_id if state is not None else None

    # -- span recording --------------------------------------------------

    def _stack(self, state: _TraceState) -> list[str]:
        # per-thread, per-trace nesting stack: pooled worker threads may
        # carry a stale stack from an earlier trace — reset on mismatch
        entry = getattr(self._tls, "entry", None)
        if entry is None or entry[0] is not state:
            entry = (state, [])
            self._tls.entry = entry
        return entry[1]

    @contextmanager
    def span(self, name: str) -> Iterator[str | None]:
        """Record one identified span (no-op when no trace is open)."""
        state = self._state
        if state is None:
            yield None
            return
        stack = self._stack(state)
        parent = stack[-1] if stack else state.root_id
        span_id = _new_id()
        stack.append(span_id)
        start_unix = time.time()
        t0 = time.perf_counter()
        try:
            yield span_id
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            state.add(
                SpanRecord(
                    span_id=span_id,
                    parent_id=parent,
                    name=name,
                    start_unix=start_unix,
                    duration_s=duration,
                    pid=os.getpid(),
                    thread=threading.current_thread().name,
                )
            )

    def current_span_id(self) -> str | None:
        """The enclosing span id on this thread (the trace root if none).

        This is the value to propagate across a process boundary so the
        remote side's spans parent the local span that caused them.
        """
        state = self._state
        if state is None:
            return None
        stack = self._stack(state)
        return stack[-1] if stack else state.root_id

    def record_remote(self, spans: list[dict[str, Any]]) -> int:
        """Fold span dicts produced by another process into the trace.

        Returns the number folded (0 when no trace is open or on
        malformed entries — remote telemetry must never fail a run).
        """
        state = self._state
        if state is None:
            return 0
        folded = 0
        for payload in spans or ():
            try:
                state.add(SpanRecord.from_dict(payload))
            except HarnessError:
                continue
            folded += 1
        return folded


_active: Tracer | None = None
_active_mu = threading.Lock()


def active_tracer() -> Tracer | None:
    """The process-wide tracer bare :func:`repro.obs.span` calls feed."""
    return _active


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh one) as the active tracer.

    Nestable: the previous tracer is restored on exit.
    """
    global _active
    trc = tracer if tracer is not None else Tracer()
    with _active_mu:
        previous, _active = _active, trc
    try:
        yield trc
    finally:
        with _active_mu:
            _active = previous


def propagation_context() -> dict[str, str] | None:
    """The ``{"id": trace_id, "parent": span_id}`` dict to send over a
    process boundary, or None when tracing is off / no trace is open."""
    tracer = _active
    if tracer is None:
        return None
    trace_id = tracer.current_trace_id()
    if trace_id is None:
        return None
    parent = tracer.current_span_id()
    ctx = {"id": trace_id}
    if parent is not None:
        ctx["parent"] = parent
    return ctx


def carry_span(fn: Callable[[_A], _R]) -> Callable[[_A], _R]:
    """``fn``, run under the calling thread's current span wherever it runs.

    Span nesting is per thread, so a span opened on a worker thread
    would otherwise parent the trace root.  Hand the returned callable
    to the worker: its spans nest under the span open here.  Returns
    ``fn`` itself when no trace is open.
    """
    tracer = _active
    state = tracer._state if tracer is not None else None
    if state is None:
        return fn
    parent = tracer.current_span_id()

    def carried(arg: _A) -> _R:
        stack = tracer._stack(state)
        stack.append(parent)
        try:
            return fn(arg)
        finally:
            stack.pop()

    return carried


def fold_remote_spans(spans: list[dict[str, Any]] | None) -> int:
    """Fold remote span dicts into the active trace (no-op when off)."""
    if not spans:
        return 0
    tracer = _active
    if tracer is None:
        return 0
    return tracer.record_remote(spans)
