"""Observability: distributed traces, phase profiles, metrics, trends.

The telemetry layer of the runtime.  Four concerns, one ``span()``:

* **Distributed tracing** (:mod:`repro.obs.trace`) — identified spans
  (trace id / span id / parent id, wall-clock start + duration) that
  cross the store-server process boundary and export as Chrome
  trace-event JSON.  :func:`span` (:mod:`repro.obs.spans`) records into
  the active tracer's open trace.
* **Phase profiles** — :meth:`Trace.profile` sums a finished trace's
  spans by nested name path into a :class:`PhaseProfile` breakdown
  tree, rendered by :func:`render_profile`.
* **Metrics** (:mod:`repro.obs.metrics`) — the store server's own
  labeled Counter/Gauge/Histogram registry with Prometheus text
  exposition, served live by its ``metrics`` op.  A run's counts are
  not metered: they live once, in its :class:`~repro.stats.RunStats`.
* **Trend reports** (:mod:`repro.obs.trend`) — cross-run
  cache-efficiency / retry / phase-time tables aggregated from a
  store's run manifests.

Quickstart::

    from repro import obs

    traces = []
    with obs.tracing(obs.Tracer(on_finish=traces.append)):
        run(plan, ...)                      # each run gets a trace
    print(obs.render_profile(traces[0].profile()))

Tracing is zero cost when disarmed: a bare :func:`span` with no tracer
active (or one between traces) returns a shared no-op context manager.

CLI: ``python -m repro.obs report|trace|trend`` (see
:mod:`repro.obs.cli`).
"""

from repro.obs import trace as _trace_mod  # noqa: F401  (import order)
from repro.obs.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.report import (
    load_profile,
    profile_payload,
    profile_title,
    render_manifest,
    render_profile,
)
from repro.obs.spans import PhaseProfile, PhaseTotals, span
from repro.obs.trace import (
    TRACE_SCHEMA,
    SpanRecord,
    Trace,
    Tracer,
    active_tracer,
    carry_span,
    fold_remote_spans,
    make_span_dict,
    new_span_id,
    propagation_context,
    tracing,
)

__all__ = [
    # spans / phase profiles
    "span",
    "PhaseProfile",
    "PhaseTotals",
    # tracing
    "tracing",
    "active_tracer",
    "Tracer",
    "Trace",
    "SpanRecord",
    "TRACE_SCHEMA",
    "propagation_context",
    "carry_span",
    "fold_remote_spans",
    "make_span_dict",
    "new_span_id",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "render_prometheus",
    "METRICS_SCHEMA",
    # reports
    "render_profile",
    "render_manifest",
    "load_profile",
    "profile_payload",
    "profile_title",
]
