"""The unified stats schema: one dict shape for every introspection surface.

Three stats surfaces grew up independently — ``ResultCache.stats()``
dicts, the persist layer's :class:`~repro.persist.store.StoreStats`
dataclass, and the runtime's :class:`RunStats` dataclass (defined here,
so manifests and the store server read run stats without loading the
runtime) — each with its own key conventions.  Operators and tools
(manifests, ``python -m repro.obs report``, the remote store server's
``stats`` op) want one schema they can consume without knowing which
surface produced it.

Every unified payload is a plain JSON-ready dict carrying two marker
keys next to its counters:

* ``"schema"`` — always :data:`STATS_SCHEMA` (versioned, so a consumer
  can detect payloads from a future incompatible revision);
* ``"kind"`` — which surface produced it: ``"run"`` (one executed
  plan), ``"store"`` (one store directory / endpoint), ``"result_cache"``
  or ``"score_cache"`` (one cache backend).

Counter key names are *stable*: they match the historical field names
(``total_units``, ``cache_hits``, ``read_lru_hits``, …), so pre-schema
manifests rehydrate unchanged and existing consumers keep working —
:func:`strip_markers` peels the two marker keys off for code that wants
only the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.errors import HarnessError

# /2 added observability fields: run stats may carry a ``trace_id`` and
# manifests a ``trace`` payload (early /2 manifests also carry a
# ``metrics`` snapshot, which loading drops).  Consumers stay tolerant of
# /1 (and pre-schema) payloads — the new keys are optional, never
# required, so old manifests rehydrate unchanged.
STATS_SCHEMA = "repro.stats/2"

STATS_KINDS = ("run", "store", "result_cache", "score_cache")


def stats_dict(kind: str, **fields: Any) -> dict[str, Any]:
    """One unified stats payload: schema + kind markers, then counters."""
    if kind not in STATS_KINDS:
        raise ValueError(f"unknown stats kind {kind!r}; choose from {STATS_KINDS}")
    return {"schema": STATS_SCHEMA, "kind": kind, **fields}


def strip_markers(payload: dict[str, Any]) -> dict[str, Any]:
    """The counters of one stats payload, without the schema/kind markers.

    Tolerant of pre-schema payloads (no markers to strip), so consumers
    can feed it both old manifests and fresh unified dicts.
    """
    return {
        key: value
        for key, value in payload.items()
        if key not in ("schema", "kind")
    }


@dataclass(frozen=True)
class RunStats:
    """How one run's units were satisfied."""

    total_units: int
    generated: int  # units that reached the executor (new model calls)
    cache_hits: int  # units satisfied from the result cache
    deduplicated: int  # units coalesced onto an identical in-run generation
    scores_computed: int = 0  # scorer invocations (score-cache misses)
    score_hits: int = 0  # units whose score came from the score cache
    generation_seconds: float = 0.0  # summed provider wall-clock of new calls
    read_lru_hits: int = 0  # store read-LRU hits during this run (disk cache)
    read_lru_misses: int = 0  # store read-LRU misses during this run
    bytes_read: int = 0  # record bytes read from store segments this run
    units_failed: int = 0  # units quarantined by the fault policy
    units_retried: int = 0  # units that needed at least one retry
    retry_seconds: float = 0.0  # failed-attempt time + backoff sleeps
    trace_id: str | None = None  # distributed-trace id (when tracing was on)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_units if self.total_units else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Unified stats payload (``repro.stats`` schema, kind ``"run"``).

        Key names match the dataclass fields — the shape manifests have
        always persisted — plus the schema/kind markers.
        """
        payload = stats_dict("run")
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunStats":
        """Rehydrate from :meth:`as_dict` output *or* a pre-schema payload.

        Tolerant in both directions: marker keys and unknown keys (future
        ones, and the retired ``profile``) are ignored, and fields absent
        from old payloads keep their dataclass defaults.
        """
        body = strip_markers(dict(payload))
        known = {spec.name for spec in fields(cls)}
        kwargs = {key: value for key, value in body.items() if key in known}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise HarnessError(f"malformed run-stats payload: {exc}") from None
