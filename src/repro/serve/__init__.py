"""Networked store service: one shared cache for many machines.

Everything under :mod:`repro.persist` assumes the store directory is
mountable by every process that wants the warm cache.  This package
removes that assumption: :class:`StoreServer` is a long-lived asyncio
process owning N shard :class:`~repro.persist.RunStore` directories
(records routed by a stable hash of their content key) behind a small
length-prefixed JSON frame protocol over TCP and unix sockets, and
:class:`RemoteRunStore` is a drop-in client face for the existing store
protocol — pooled connections, pipelined batches, and deterministic
reconnect-and-replay on transport faults (surfaced as the retryable
:class:`~repro.errors.RemoteStoreError`).  It supplies only raw record
and manifest I/O; its caches and ``record_run`` are the same
:class:`~repro.persist.RecordStore` code a local store runs.

Quickstart::

    # one shared server
    #   python -m repro.serve --root runs/served --shards 4 --tcp 0.0.0.0:9045

    # any number of sweep processes, on any machine
    from repro.runtime import RunConfig, run

    config = RunConfig.from_url("tcp://cache-host:9045")
    result = run(plan, config=config)       # warm units never re-generate
    config.store.close()

Grids are bit-identical to the local-store path: the server stores the
same checksummed records, keyed by the same content addresses.
"""

from repro.serve.client import RemoteRunStore, StoreClient
from repro.serve.replicated import (
    ReplicatedRunStore,
    ReplicatedStoreClient,
)
from repro.serve.protocol import (
    MAX_FRAME,
    TornFrameError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.server import SERVER_ID, StoreServer, shard_for
from repro.serve.url import REMOTE_SCHEMES, open_store, parse_store_url

__all__ = [
    "StoreServer",
    "SERVER_ID",
    "shard_for",
    "StoreClient",
    "RemoteRunStore",
    "ReplicatedRunStore",
    "ReplicatedStoreClient",
    "open_store",
    "parse_store_url",
    "REMOTE_SCHEMES",
    "MAX_FRAME",
    "TornFrameError",
    "encode_frame",
    "read_frame",
    "write_frame",
]
