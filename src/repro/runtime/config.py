"""One frozen config object for the whole runtime surface.

:class:`RunConfig` bundles every execution knob of a run (``executor``,
``cache``, ``score_cache``, ``store``, ``faults``, ``resume_from``,
plus the ``store_url`` a store was opened from) into one immutable
value.  It is the only way to configure a run, and it
travels through every entry point — ``run(plan, config=...)``,
:func:`repro.core.task.evaluate` (as ``run_config=``), all five
experiment runners, :func:`repro.reporting.reproduce_table` and
``examples/reproduce_tables.py`` — so a sweep's execution policy is one
object you build once, ``replace()`` to vary, and pass everywhere.

Quickstart::

    from repro.runtime import RunConfig, ThreadExecutor, run

    config = RunConfig.from_url(
        "tcp://cache-host:9045",            # shared networked RunStore
        executor=ThreadExecutor(16),        # 16 provider calls in flight
    )
    result = run(plan, config=config)
    serial = config.replace(executor=None)  # same store, serial execution
    rerun = run(plan, config=serial)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import HarnessError

if TYPE_CHECKING:  # imported for annotations only — no import cycles at runtime
    from repro.runtime.cache import ResultCache, ScoreCache
    from repro.runtime.executors import Executor
    from repro.runtime.faults import FaultPolicy


@dataclass(frozen=True)
class RunConfig:
    """Every execution knob of one run, in one immutable object.

    All fields default to ``None`` — "use the runtime's default" — so an
    empty ``RunConfig()`` is exactly a bare ``run(plan)``.  ``store``
    accepts anything with the :class:`~repro.persist.RunStore` surface,
    including a :class:`~repro.serve.RemoteRunStore`; ``store_url``
    records the endpoint a store was opened from (set by
    :meth:`from_url`) purely as provenance — the resolved ``store``
    object is what the runtime uses.
    """

    executor: "Executor | None" = None
    cache: "ResultCache | None" = None
    score_cache: "ScoreCache | None" = None
    store: Any = None
    faults: "FaultPolicy | None" = None
    resume_from: str | None = None
    store_url: str | None = None

    @classmethod
    def from_url(cls, url: str, **knobs: Any) -> "RunConfig":
        """A config whose store is opened from ``url``.

        ``url`` is anything :func:`repro.serve.open_store` accepts: a
        plain directory path (local :class:`~repro.persist.RunStore`),
        ``tcp://host:port``, or ``unix:///path/sock`` /
        ``repro+unix://...`` (a :class:`~repro.serve.RemoteRunStore`
        client).  The opened store is owned by the returned config's
        caller — close it (``config.store.close()``) when done.  The
        knobs are checked before the store is opened, so a bad knob
        leaves nothing open behind.
        """
        if "store" in knobs:
            raise HarnessError(
                "RunConfig.from_url opens the store from the URL; "
                "passing store= too is ambiguous"
            )
        config = cls(store_url=url, **knobs)  # unknown knobs raise TypeError here
        from repro.serve import open_store  # lazy: serve builds on runtime

        return config.replace(store=open_store(url))

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (``None`` clears a knob)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """The non-default knobs, one compact line (logs, CLI banners)."""
        parts = [
            f"{field.name}={getattr(self, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        ]
        return f"RunConfig({', '.join(parts)})" if parts else "RunConfig(defaults)"
