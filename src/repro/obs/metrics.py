"""Typed metrics with labels: counters, gauges, histograms.

The :class:`~repro.serve.server.StoreServer` meters itself with one
always-on :class:`MetricsRegistry` of three Prometheus-shaped
instrument types:

* :class:`Counter` — monotonically increasing totals (``inc``),
* :class:`Gauge` — point-in-time values (``inc``/``dec``),
* :class:`Histogram` — bucketed latency/size distributions
  (``observe``) with p50/p95/p99 estimates.

Every instrument takes optional **labels** (``counter.inc(op="get")``),
so one metric fans out into per-series values the way Prometheus
expects.  Registries are cheap plain-Python objects guarded by one
lock.  A run's own counts are not metered here: they are recorded once,
in its :class:`~repro.stats.RunStats`.

``snapshot()`` freezes a registry into a JSON-safe dict (the payload of
the store server's ``metrics`` op); :func:`render_prometheus` turns a
snapshot into Prometheus text exposition for scraping or
``--metrics-file`` dumps.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import HarnessError

METRICS_SCHEMA = "repro.metrics/1"

#: Default histogram bucket upper bounds, in seconds — spans request
#: latencies from tens of microseconds to tens of seconds.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(
    labelnames: tuple[str, ...], labels: dict[str, Any]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise HarnessError(
            f"metric labels {sorted(labels)} != declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._mu = threading.Lock()
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise HarnessError(f"counter {self.name} cannot decrease")
        key = _label_key(self.labelnames, labels)
        with self._mu:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._mu:
            return self._series.get(key, 0.0)

    def _snapshot_series(self) -> list[dict[str, Any]]:
        with self._mu:
            return [
                {"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in sorted(self._series.items())
            ]


class Gauge(Counter):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._mu:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram:
    """A bucketed distribution with quantile estimates.

    Buckets are upper bounds (``le``); an implicit +Inf bucket catches
    the overflow.  Quantiles are estimated by linear interpolation
    inside the bucket containing the target rank, clamped to the
    observed min/max — exact enough for p50/p95/p99 dashboards without
    storing samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise HarnessError(f"histogram {name}: buckets must ascend")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.buckets = tuple(float(b) for b in buckets)
        self._mu = threading.Lock()
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        value = float(value)
        with self._mu:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            idx = len(self.buckets)  # +Inf overflow by default
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            series.counts[idx] += 1
            series.count += 1
            series.sum += value
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    @staticmethod
    def _quantile(
        q: float, buckets: tuple[float, ...], series: _HistogramSeries
    ) -> float:
        if series.count == 0:
            return 0.0
        target = q * series.count
        cumulative = 0
        for i, bucket_count in enumerate(series.counts):
            if bucket_count == 0:
                cumulative += bucket_count
                continue
            if cumulative + bucket_count >= target:
                lo = buckets[i - 1] if i > 0 else 0.0
                hi = buckets[i] if i < len(buckets) else series.max
                lo = max(lo, series.min) if i == 0 else lo
                frac = (target - cumulative) / bucket_count
                value = lo + (hi - lo) * max(0.0, min(frac, 1.0))
                return max(series.min, min(value, series.max))
            cumulative += bucket_count
        return series.max

    def _snapshot_series(self) -> list[dict[str, Any]]:
        with self._mu:
            out = []
            for key, series in sorted(self._series.items()):
                out.append(
                    {
                        "labels": dict(zip(self.labelnames, key)),
                        "count": series.count,
                        "sum": series.sum,
                        "min": series.min if series.count else 0.0,
                        "max": series.max if series.count else 0.0,
                        "buckets": [
                            [self.buckets[i], series.counts[i]]
                            for i in range(len(self.buckets))
                        ]
                        + [["+Inf", series.counts[-1]]],
                        "p50": self._quantile(0.50, self.buckets, series),
                        "p95": self._quantile(0.95, self.buckets, series),
                        "p99": self._quantile(0.99, self.buckets, series),
                    }
                )
            return out


class MetricsRegistry:
    """Get-or-create home for a server's instruments."""

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self.created_unix = time.time()

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._mu:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise HarnessError(
                        f"metric {name!r} re-registered with a different "
                        f"type or labels"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe freeze of every instrument's current series."""
        with self._mu:
            metrics = list(self._metrics.values())
        return {
            "schema": METRICS_SCHEMA,
            "uptime_seconds": time.time() - self.created_unix,
            "metrics": [
                {
                    "name": metric.name,
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "series": metric._snapshot_series(),
                }
                for metric in sorted(metrics, key=lambda m: m.name)
            ],
        }


def _fmt_labels(labels: dict[str, Any], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(float(value))


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """Prometheus text exposition (v0.0.4) of one registry snapshot."""
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise HarnessError(f"malformed metrics snapshot: {snapshot!r:.120}")
    lines: list[str] = []
    for metric in snapshot["metrics"]:
        name = metric["name"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {metric['type']}")
        for series in metric["series"]:
            labels = series.get("labels", {})
            if metric["type"] == "histogram":
                cumulative = 0
                for bound, count in series["buckets"]:
                    cumulative += count
                    le = "+Inf" if bound == "+Inf" else _fmt_value(bound)
                    le_label = f'le="{le}"'
                    lines.append(
                        f"{name}_bucket{_fmt_labels(labels, le_label)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(series['sum'])}"
                )
                lines.append(
                    f"{name}_count{_fmt_labels(labels)} {series['count']}"
                )
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} "
                    f"{_fmt_value(series['value'])}"
                )
    return "\n".join(lines) + "\n"
