"""The unified stats schema: one dict shape for every introspection surface.

Three stats surfaces grew up independently — ``ResultCache.stats()``
dicts, the persist layer's :class:`~repro.persist.store.StoreStats`
dataclass, and the runtime's :class:`~repro.runtime.runner.RunStats`
dataclass — each with its own key conventions.  Operators and tools
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

from typing import Any

# /2 added observability fields: run stats may carry a ``trace_id`` and
# manifests may carry ``trace`` / ``metrics`` payloads.  Consumers stay
# tolerant of /1 (and pre-schema) payloads — the new keys are optional,
# never required, so old manifests rehydrate unchanged.
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
