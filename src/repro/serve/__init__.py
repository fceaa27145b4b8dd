"""Networked store service: one shared cache for many machines.

Everything under :mod:`repro.persist` assumes the store directory is
mountable by every process that wants the warm cache.  This package
removes that assumption: :class:`StoreServer` is a long-lived process,
one thread per connection, owning N shard
:class:`~repro.persist.RunStore` directories (records routed by a
stable hash of their content key) behind a small length-prefixed JSON
frame protocol over TCP and unix sockets, and
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

The server, client and replicated names load on first use (PEP 562):
``from repro.serve import open_store`` loads only URL parsing, and a
store-server host (``python -m repro.serve``) needs only the standard
library — neither numpy nor the model and metric stack is imported.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import RemoteRunStore, StoreClient
    from repro.serve.replicated import ReplicatedRunStore, ReplicatedStoreClient
    from repro.serve.protocol import (
        MAX_FRAME,
        TornFrameError,
        encode_frame,
        read_frame,
        write_frame,
    )
    from repro.serve.server import SERVER_ID, StoreServer, shard_for
    from repro.serve.url import REMOTE_SCHEMES, open_store, parse_store_url

_EXPORTS = {  # public name -> defining module
    "StoreServer": "repro.serve.server",
    "SERVER_ID": "repro.serve.server",
    "shard_for": "repro.serve.server",
    "StoreClient": "repro.serve.client",
    "RemoteRunStore": "repro.serve.client",
    "ReplicatedRunStore": "repro.serve.replicated",
    "ReplicatedStoreClient": "repro.serve.replicated",
    "open_store": "repro.serve.url",
    "parse_store_url": "repro.serve.url",
    "REMOTE_SCHEMES": "repro.serve.url",
    "MAX_FRAME": "repro.serve.protocol",
    "TornFrameError": "repro.serve.protocol",
    "encode_frame": "repro.serve.protocol",
    "read_frame": "repro.serve.protocol",
    "write_frame": "repro.serve.protocol",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
