"""Run manifests: provenance for every table cell.

A :class:`RunManifest` is the durable record of one
:func:`repro.runtime.run` invocation against a store: which plan ran
(name + content fingerprint + the per-unit generation keys), with which
executor/cache configuration, how the units were satisfied
(the full :class:`~repro.stats.RunStats`), and how long it
took.  Manifests are small JSON files under ``manifests/`` in the store
directory, written via write-temp-then-rename so a crashed run never
leaves a half manifest.

The *plan fingerprint* is a content address over the plan's units
(uid + generation key per unit, in plan order).  Re-running the same
sweep — in another process, on another day — produces the same
fingerprint, which is how a repeated run is linked to its predecessor
(``resumed_from``) and how "the second pass generated nothing" becomes
an auditable statement rather than a hope.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import HarnessError, PersistError
from repro.runtime.faults import (
    UnitFailure,
    failure_from_payload,
    failure_payload,
)
from repro.stats import RunStats

if TYPE_CHECKING:  # a manifest reads a plan's units; it never builds one
    from repro.runtime.plan import Plan

# distinguishes several runs recorded by one process in the same millisecond
_RUN_SEQ = itertools.count()


def plan_fingerprint(plan: Plan) -> str:
    """Content address of one plan: SHA-256 over (uid, key) per unit."""
    body = "\x1e".join(f"{unit.uid}\x1f{unit.key}" for unit in plan.units)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def make_run_id(started_unix: float, fingerprint: str) -> str:
    """Unique, sortable id: timestamp + plan fingerprint + pid + sequence."""
    return (
        f"run-{int(started_unix * 1000):013d}-{fingerprint[:8]}"
        f"-p{os.getpid()}-{next(_RUN_SEQ)}"
    )


_KEY_FIELDS: dict[str, type | tuple[type, ...]] = {
    "run_id": str,
    "plan_name": str,
    "plan_fingerprint": str,
    "started_unix": (int, float),
    "wall_seconds": (int, float),
}


def _check_key_fields(payload: dict[str, Any]) -> None:
    """Type-check the fields runs are sorted, linked and listed by.

    A manifest whose ``started_unix`` is a string, say, would otherwise
    load and then break every later sort of the store's run history.
    """
    for name, kinds in _KEY_FIELDS.items():
        value = payload[name]
        # bools pass isinstance(..., int) but are no timestamp
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise PersistError(
                f"malformed run manifest: {name} is a {type(value).__name__}"
            )


@dataclass(frozen=True)
class RunManifest:
    """What one ``runtime.run`` did, durably."""

    run_id: str
    plan_name: str
    plan_fingerprint: str
    unit_keys: tuple[str, ...]  # per-unit generation keys, plan order
    executor: str  # repr of the executor the run used
    cache: str  # repr of the result-cache backend
    stats: RunStats
    started_unix: float
    wall_seconds: float
    resumed_from: str | None = None  # run_id of the latest same-fingerprint run
    failures: tuple[UnitFailure, ...] = ()  # units quarantined by the policy
    # the run's recorded Trace.as_dict() (absent on untraced runs and on
    # pre-repro.stats/2 manifests)
    trace: dict[str, Any] | None = None

    @property
    def total_units(self) -> int:
        return self.stats.total_units

    def to_payload(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["unit_keys"] = list(self.unit_keys)
        # stats persist in the unified repro.stats schema (kind "run");
        # key names are the historical field names, so old consumers
        # keep working and old manifests rehydrate below
        payload["stats"] = self.stats.as_dict()
        payload["failures"] = [failure_payload(f) for f in self.failures]
        # an untraced run carries no trace key on disk
        if payload["trace"] is None:
            del payload["trace"]
        return payload

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "RunManifest":
        # fields are picked by name: keys of removed features that older
        # manifests carry ("scheduler", a "metrics" snapshot) are dropped
        try:
            _check_key_fields(payload)
            # accepts both unified-schema stats and pre-schema payloads
            stats = RunStats.from_dict(payload["stats"])
            return RunManifest(
                run_id=payload["run_id"],
                plan_name=payload["plan_name"],
                plan_fingerprint=payload["plan_fingerprint"],
                unit_keys=tuple(payload["unit_keys"]),
                executor=payload["executor"],
                cache=payload["cache"],
                stats=stats,
                started_unix=payload["started_unix"],
                wall_seconds=payload["wall_seconds"],
                resumed_from=payload.get("resumed_from"),
                failures=tuple(
                    failure_from_payload(f)
                    for f in payload.get("failures", ())
                ),
                trace=payload.get("trace"),
            )
        except (KeyError, TypeError, HarnessError) as exc:
            raise PersistError(f"malformed run manifest: {exc}") from None

    def describe(self) -> str:
        """One ``ls-runs`` line: id, plan, and how units were satisfied."""
        s = self.stats
        resumed = f" resumed_from={self.resumed_from}" if self.resumed_from else ""
        failed = f" failed={len(self.failures)}" if self.failures else ""
        return (
            f"{self.run_id}  plan={self.plan_name!r} units={s.total_units} "
            f"generated={s.generated} cache_hits={s.cache_hits} "
            f"dedup={s.deduplicated} wall={self.wall_seconds:.2f}s"
            f"{failed}{resumed}"
        )


def build_manifest(
    *,
    plan: Plan,
    stats: RunStats,
    executor: object,
    cache: object,
    started_unix: float,
    wall_seconds: float,
    failures: Sequence[UnitFailure] = (),
    resumed_from: str | None = None,
    latest_for: Callable[[str], "RunManifest | None"] | None = None,
    trace: dict[str, Any] | None = None,
) -> RunManifest:
    """Assemble one :class:`RunManifest` for an executed run.

    The body of :meth:`repro.persist.RecordStore.record_run`, which local
    and networked stores share — the manifest is built the same way
    whether it is written to a local directory or shipped over the
    wire.  ``latest_for`` (fingerprint → latest same-plan manifest)
    supplies the implicit ``resumed_from`` link when the caller did not
    pin a predecessor explicitly.
    """
    fingerprint = plan_fingerprint(plan)
    if resumed_from is None and latest_for is not None:
        previous = latest_for(fingerprint)
        resumed_from = previous.run_id if previous is not None else None
    return RunManifest(
        run_id=make_run_id(started_unix, fingerprint),
        plan_name=plan.name,
        plan_fingerprint=fingerprint,
        unit_keys=tuple(unit.key for unit in plan.units),
        executor=repr(executor),
        cache=repr(cache),
        stats=stats,
        started_unix=started_unix,
        wall_seconds=wall_seconds,
        resumed_from=resumed_from,
        failures=tuple(failures),
        trace=trace,
    )
