"""Durable run store: on-disk caches, run manifests, resumable sweeps.

This package is the persistence layer under the parallel evaluation
runtime.  A :class:`RunStore` is one directory of append-only,
checksummed segment files (generations + memoized scores, content-
addressed exactly like the in-memory caches) plus a registry of
:class:`RunManifest`\\ s — one durable provenance record per
:func:`repro.runtime.run` invocation.  N processes share one store
safely through ``fcntl`` file locking; torn writes are detected by
per-record checksums and healed on the next append.  The runtime's
cache pair (:class:`StoreResultCache`/:class:`StoreScoreCache`) and
``record_run`` live on :class:`RecordStore`, written once over raw
record I/O and shared with the networked :mod:`repro.serve` client.

Quickstart::

    from repro.persist import RunStore
    from repro.core.experiments import run_configuration
    from repro.runtime import RunConfig

    with RunStore("./repro-store") as store:
        config = RunConfig(store=store)
        grid = run_configuration(config=config)    # cold: generates + records
        rerun = run_configuration(config=config)   # warm: zero generations
        assert store.latest_manifest().stats.generated == 0

    # later, any process:
    #   python -m repro.persist stats ./repro-store
    #   python -m repro.persist verify ./repro-store
    #   python -m repro.persist gc ./repro-store
    #   python -m repro.persist ls-runs ./repro-store
"""

from repro.persist.manifest import RunManifest, make_run_id, plan_fingerprint
from repro.persist.records import (
    decode_record,
    disk_score_key,
    encode_record,
    stable_fingerprint_token,
)
from repro.persist.store import (
    GCStats,
    RecordStore,
    RunStore,
    StoreResultCache,
    StoreScoreCache,
    StoreStats,
    VerifyReport,
)

__all__ = [
    "RunStore",
    "RecordStore",
    "StoreResultCache",
    "StoreScoreCache",
    "RunManifest",
    "StoreStats",
    "VerifyReport",
    "GCStats",
    "plan_fingerprint",
    "make_run_id",
    "encode_record",
    "decode_record",
    "disk_score_key",
    "stable_fingerprint_token",
]
