"""Content-addressed result cache for generations.

Keys come from :func:`repro.runtime.units.generation_key` — (prompt hash,
model, generate config, seed) — so a hit is guaranteed to be the exact
completion the model would have produced, and repeated sweeps (the
Overall rows, the sensitivity figures re-running the ``original``
variant, warm benchmark reruns) skip the model layer entirely.

Two backends:

* :class:`InMemoryResultCache` — a thread-safe dict, scoped to the
  process; the default choice inside one script run;
* :class:`repro.persist.StoreResultCache` — the durable backend: entries
  live in a store shared between processes, either an on-disk
  :class:`~repro.persist.RunStore` (``backend="disk"``, see
  :mod:`repro.persist`) or the same store reached through a
  :class:`~repro.serve.StoreServer` (``backend="remote"``, see
  :mod:`repro.serve`).

Both expose the same introspection surface (``__len__`` and
``stats()``; see :class:`ResultCache`), so harness code and tests can
treat any backend interchangeably.

:class:`ScoreCache` sits on the other side of the executor: it memoizes
*scores* by (generation key, target hash, scorer fingerprint) so cache
hits and deduplicated units skip the metric work too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable, Protocol, Sequence, runtime_checkable

from repro.errors import HarnessError
from repro.stats import stats_dict

from repro.runtime.units import Generation


@runtime_checkable
class ResultCache(Protocol):
    """What a cache backend must implement.

    The contract, shared by both shipped backends (in-memory, and the
    store-backed one over a local or remote store):

    * ``get_many(keys)`` — ``{key: Generation}`` for the present
      subset of the content keys (from
      :func:`repro.runtime.units.generation_key`), each flagged via
      :meth:`Generation.as_cached`.  The runner resolves a whole plan's
      lookups in this one batch (the disk backend sorts the reads by
      file offset).  A lookup must never invent entries: a hit is
      always the exact completion the model would have produced for
      that key.
    * ``put_many(generations)`` — store each generation under its own
      key, in one batch (one lock acquisition / one disk append instead
      of N); last-writer-wins on duplicates (all writers hold identical
      content for a given key, so the race is benign).
    * ``__len__()`` — number of distinct keys currently cached.
    * ``stats()`` — introspection dict in the unified ``repro.stats``
      schema (``schema``/``kind`` markers, kind ``"result_cache"``) with
      at least ``backend`` (str),
      ``entries``, ``hits``, ``misses`` and ``puts`` counters, plus the
      read-path counters ``read_lru_hits``, ``read_lru_misses`` and
      ``bytes_read`` (how many record reads the backing storage served
      from its decoded-payload LRU vs. from disk, and how many record
      bytes were read; identically zero for backends with no backing
      storage), so tests and operators can ask any backend how it has
      been used.
    """

    def get_many(
        self, keys: Sequence[str]
    ) -> dict[str, Generation]:  # pragma: no cover - protocol
        ...

    def put_many(
        self, generations: Iterable[Generation]
    ) -> None:  # pragma: no cover - protocol
        ...

    def __len__(self) -> int:  # pragma: no cover - protocol
        ...

    def stats(self) -> dict[str, int | str]:  # pragma: no cover - protocol
        ...


class InMemoryResultCache:
    """Thread-safe process-local cache."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, Generation] = {}
        self._hits = 0
        self._misses = 0
        self._puts = 0

    def get_many(self, keys: Sequence[str]) -> dict[str, Generation]:
        """Batched lookup: one lock acquisition for a whole plan."""
        out: dict[str, Generation] = {}
        with self._lock:
            for key in keys:
                gen = self._entries.get(key)
                if gen is None:
                    self._misses += 1
                else:
                    self._hits += 1
                    out[key] = gen
        return {key: gen.as_cached() for key, gen in out.items()}

    def put_many(self, generations: Iterable[Generation]) -> None:
        with self._lock:
            for gen in generations:
                self._entries[gen.key] = gen
                self._puts += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int | str]:
        with self._lock:
            return stats_dict(
                "result_cache",
                backend="memory",
                entries=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                # no backing storage: the read path never leaves the dict
                read_lru_hits=0,
                read_lru_misses=0,
                bytes_read=0,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InMemoryResultCache(entries={len(self)})"


class ScoreCache:
    """Bounded LRU memo of unit scores.

    Keyed by (generation key, target hash, scorer fingerprint) — see
    :func:`repro.runtime.runner.score_key` — so deduplicated units and
    warm-result-cache reruns never re-score an identical
    (completion, target) pair.  A fresh per-run instance is created by
    :func:`repro.runtime.runner.run` when none is passed; hand one cache
    to several runs to keep scores warm across a multi-plan sweep.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise HarnessError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def get(self, key: Hashable) -> object | None:
        with self._lock:
            score = self._entries.get(key)
            if score is not None:
                self._entries.move_to_end(key)
        return score

    def put(self, key: Hashable, score: object) -> None:
        self.fill([(key, score)])

    def fill(self, items: Iterable[tuple[Hashable, object]]) -> None:
        """Insert ``(key, score)`` pairs under one lock acquisition.

        The bulk path a backing store loads through.  The runner calls
        :meth:`put` once per computed score, and per-layer tracing counts
        those calls as scoring events, so loads never go through it.
        """
        with self._lock:
            for key, score in items:
                self._entries[key] = score
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def prefetch(self, keys: Iterable[Hashable]) -> None:
        """Load ``keys`` ahead of their :meth:`get` calls, in one batch.

        The runner calls this once per run before its per-key gets.  A
        memory-only memo has nothing behind it to load from, so this is
        a no-op; a store-backed cache reads the durable scores here.
        """

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScoreCache(entries={len(self)}, maxsize={self.maxsize})"
