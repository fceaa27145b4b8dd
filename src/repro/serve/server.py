"""The store server: N local shard stores behind one socket.

:class:`StoreServer` owns ``shards`` independent
:class:`~repro.persist.RunStore` directories under one root
(``shard-00``, ``shard-01``, …) and routes every record to a shard by a
stable hash of its content key — so the shard layout is a pure function
of the data, identical for every client, and growing a deployment is a
matter of re-sharding directories, not rewriting records.  Manifests
(tiny, per-run, listed globally) all live on shard 0.

The server is a single asyncio process: each connection is one
lightweight task reading request frames in order and answering each
with exactly one response frame (see :mod:`repro.serve.protocol`).
Store calls are blocking disk I/O, so they run in worker threads via
``asyncio.to_thread`` — ``RunStore`` is thread-safe — keeping the event
loop free to multiplex many clients.  Because all tenants share the
same shard ``RunStore`` objects, they share one warm read-LRU: tenant
B's ``get_many`` is served from memory when tenant A just read the same
records.

A request that raises is answered with ``{"ok": false, "error": ...,
"error_type": ...}`` and the connection stays usable; a torn frame
closes the connection with nothing persisted (appends are atomic
group-commits that happen only after a frame fully arrives and
validates).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import pathlib
import stat
import threading
import time
from typing import Any, Awaitable, Callable, Sequence

from repro.errors import PersistError, RemoteStoreError, ServerOverloadedError
from repro.obs import MetricsRegistry, make_span_dict
from repro.persist import RunManifest, RunStore
from repro.persist.records import RECORD_KINDS

from repro.serve.protocol import (
    TornFrameError,
    read_frame_async,
    write_frame_async,
)

#: protocol identity answered to ``ping`` — bump on incompatible changes
SERVER_ID = "repro.serve/1"


def shard_for(key: str, n_shards: int) -> int:
    """Stable shard index of one record key (pure function of the key)."""
    return int(hashlib.sha256(key.encode("utf-8")).hexdigest()[:8], 16) % n_shards


class StoreServer:
    """One process serving ``shards`` RunStore directories over sockets.

    ``root`` is the service directory; shard stores are created under it
    on first boot and re-opened on every later boot (the shard *count*
    must match what the directory was created with — a mismatch would
    silently mis-route keys, so it is refused).
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        *,
        shards: int = 2,
        fsync: bool = False,
        max_inflight: int | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise PersistError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if shards <= 0:
            raise PersistError(f"shards must be positive, got {shards}")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.root.glob("shard-*"))
        if existing and len(existing) != shards:
            raise PersistError(
                f"store at {self.root} was created with {len(existing)} "
                f"shards; re-serve it with --shards {len(existing)}"
            )
        self.n_shards = shards
        self.stores = [
            RunStore(self.root / f"shard-{i:02d}", fsync=fsync)
            for i in range(shards)
        ]
        self._servers: list[asyncio.base_events.Server] = []
        self._requests_served = 0
        # admission control: a max-in-flight gate plus a drain flag.
        # Refused requests get a typed retryable answer instead of a
        # dropped connection, so clients back off and replay.
        self.max_inflight = max_inflight
        self._admit_mu = threading.Lock()
        self._inflight_n = 0
        self._draining = False
        # always-on server metrics: per-op latency/outcome, in-flight
        # gauge — exposed live via the `metrics` op and --metrics-file
        self.registry = MetricsRegistry()
        self._ops_total = self.registry.counter(
            "repro_server_ops_total",
            "requests handled, by op and outcome",
            ("op", "status"),
        )
        self._op_seconds = self.registry.histogram(
            "repro_server_op_seconds",
            "request handling latency, by op",
            ("op",),
        )
        self._inflight = self.registry.gauge(
            "repro_server_inflight_requests",
            "requests currently being handled",
        )

    # -- request dispatch (blocking; runs in worker threads) -----------------

    def _split_by_shard(self, keys: Sequence[str]) -> list[list[str]]:
        buckets: list[list[str]] = [[] for _ in range(self.n_shards)]
        for key in keys:
            buckets[shard_for(key, self.n_shards)].append(key)
        return buckets

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "server": SERVER_ID,
            "shards": self.n_shards,
            "root": str(self.root),
            "requests_served": self._requests_served,
        }

    def _op_get_records(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request["kind"]
        keys = request["keys"]
        if kind not in RECORD_KINDS:
            raise PersistError(f"unknown record kind {kind!r}")
        records: dict[str, dict[str, Any]] = {}
        for shard, shard_keys in enumerate(self._split_by_shard(keys)):
            if shard_keys:
                records.update(self.stores[shard].get_records(kind, shard_keys))
        return {"ok": True, "records": records}

    def _op_put_records(self, request: dict[str, Any]) -> dict[str, Any]:
        payloads = request["payloads"]
        buckets: list[list[dict[str, Any]]] = [[] for _ in range(self.n_shards)]
        for payload in payloads:
            if not isinstance(payload, dict) or not isinstance(
                payload.get("key"), str
            ):
                raise PersistError(
                    f"malformed record payload: {str(payload)[:80]!r}"
                )
            buckets[shard_for(payload["key"], self.n_shards)].append(payload)
        count = 0
        for shard, batch in enumerate(buckets):
            if batch:
                count += self.stores[shard].put_records(batch)
        return {"ok": True, "count": count}

    def _op_put_manifest(self, request: dict[str, Any]) -> dict[str, Any]:
        # parse-then-write: a malformed manifest is refused at the wire,
        # never persisted for every later manifests() to stumble over
        manifest = RunManifest.from_payload(request["manifest"])
        self.stores[0].put_manifest(manifest)
        return {"ok": True, "run_id": manifest.run_id}

    def _op_get_manifest(self, request: dict[str, Any]) -> dict[str, Any]:
        manifest = self.stores[0].manifest(request["run_id"])
        return {
            "ok": True,
            "manifest": manifest.to_payload() if manifest is not None else None,
        }

    def _op_manifests(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "manifests": [m.to_payload() for m in self.stores[0].manifests()],
        }

    def _op_latest_manifest(self, request: dict[str, Any]) -> dict[str, Any]:
        manifest = self.stores[0].latest_manifest(request.get("fingerprint"))
        return {
            "ok": True,
            "manifest": manifest.to_payload() if manifest is not None else None,
        }

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "stats": [store.stats().as_dict() for store in self.stores],
        }

    def _op_read_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        totals = {"read_lru_hits": 0, "read_lru_misses": 0, "bytes_read": 0}
        for store in self.stores:
            for field, value in store.read_stats().items():
                totals[field] = totals.get(field, 0) + value
        return {"ok": True, "read_stats": totals}

    def _op_list_keys(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request["kind"]
        if kind not in RECORD_KINDS:
            raise PersistError(f"unknown record kind {kind!r}")
        keys: list[str] = []
        for store in self.stores:
            keys.extend(store.keys(kind))
        return {"ok": True, "keys": sorted(keys)}

    def _op_gc(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "gc": [store.gc().as_dict() for store in self.stores]}

    def _op_verify(self, request: dict[str, Any]) -> dict[str, Any]:
        reports = []
        for index, store in enumerate(self.stores):
            report = store.verify().as_dict()
            # shard-qualify problems so the aggregated report names the
            # directory an operator must look at
            report["problems"] = [
                f"shard-{index:02d}: {problem}" for problem in report["problems"]
            ]
            reports.append(report)
        return {"ok": True, "verify": reports}

    def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        """Live server telemetry: the registry snapshot plus a summary.

        The summary pre-digests what operators ask first — per-op
        latency quantiles, per-shard record counts, uptime, in-flight —
        so a client can print it without understanding the full
        snapshot schema (which ``render_prometheus`` consumes as-is).
        """
        snapshot = self.registry.snapshot()
        per_op: dict[str, dict[str, float]] = {}
        for metric in snapshot["metrics"]:
            if metric["name"] != "repro_server_op_seconds":
                continue
            for series in metric["series"]:
                per_op[series["labels"]["op"]] = {
                    "count": series["count"],
                    "p50_s": series["p50"],
                    "p95_s": series["p95"],
                    "p99_s": series["p99"],
                }
        shards = []
        for index, store in enumerate(self.stores):
            stats = store.stats()
            shards.append(
                {
                    "shard": index,
                    "generations": stats.generations,
                    "scores": stats.scores,
                    "manifests": stats.manifests,
                    "segment_bytes": stats.segment_bytes,
                }
            )
        return {
            "ok": True,
            "metrics": snapshot,
            "summary": {
                "server": SERVER_ID,
                "uptime_seconds": snapshot["uptime_seconds"],
                "requests_served": self._requests_served,
                "in_flight": self._inflight.value(),
                "ops": per_op,
                "shards": shards,
            },
        }

    _OPS: dict[str, Callable[["StoreServer", dict[str, Any]], dict[str, Any]]] = {
        "ping": _op_ping,
        "get_records": _op_get_records,
        "put_records": _op_put_records,
        "put_manifest": _op_put_manifest,
        "get_manifest": _op_get_manifest,
        "manifests": _op_manifests,
        "latest_manifest": _op_latest_manifest,
        "stats": _op_stats,
        "read_stats": _op_read_stats,
        "metrics": _op_metrics,
        "list_keys": _op_list_keys,
        "gc": _op_gc,
        "verify": _op_verify,
    }

    def _admit(self) -> str | None:
        """Admission control: None to admit, else the refusal message."""
        with self._admit_mu:
            if self._draining:
                return "server is draining; retry against another replica"
            if (
                self.max_inflight is not None
                and self._inflight_n >= self.max_inflight
            ):
                return (
                    f"server over capacity "
                    f"({self.max_inflight} request(s) in flight)"
                )
            self._inflight_n += 1
            return None

    def drain(self) -> None:
        """Refuse every request from now on; in-flight work completes."""
        with self._admit_mu:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._admit_mu:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently being handled (admission-gate view)."""
        with self._admit_mu:
            return self._inflight_n

    async def wait_drained(self, timeout_s: float = 10.0) -> bool:
        """After :meth:`drain`: await in-flight zero; False on timeout."""
        deadline = time.monotonic() + timeout_s
        while self.inflight > 0:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Answer one request dict (blocking; also the in-process test hook).

        Every request is metered (op counter, latency histogram,
        in-flight gauge).  A request carrying a ``trace`` field — the
        ``{"id", "parent"}`` context a tracing client attaches — is
        answered with a ``spans`` list: one server-side span, timed on
        the server's clock and parented to the client span that sent
        the request, which the client folds into its live trace.
        """
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        op_label = op if handler is not None else "unknown"
        trace_ctx = request.get("trace")
        refusal = self._admit()
        if refusal is not None:
            # refused, not failed: typed + retryable, and deliberately
            # outside the latency histogram (refusals are O(ns) and
            # would drown the real per-op quantiles)
            self._ops_total.inc(op=op_label, status="refused")
            return {
                "ok": False,
                "error": refusal,
                "error_type": ServerOverloadedError.__name__,
            }
        self._inflight.inc()
        start_unix = time.time()
        t0 = time.perf_counter()
        ok = True
        try:
            if handler is None:
                raise RemoteStoreError(f"unknown op {op!r}")
            response = handler(self, request)
        except Exception as exc:  # answered, not fatal: connection stays up
            ok = False
            response = {
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        finally:
            elapsed = time.perf_counter() - t0
            self._inflight.dec()
            with self._admit_mu:
                self._inflight_n -= 1
            self._ops_total.inc(op=op_label, status="ok" if ok else "error")
            self._op_seconds.observe(elapsed, op=op_label)
        if not ok:
            return response
        self._requests_served += 1
        if isinstance(trace_ctx, dict):
            response["spans"] = [
                make_span_dict(
                    f"server:{op_label}",
                    parent_id=trace_ctx.get("parent"),
                    start_unix=start_unix,
                    duration_s=elapsed,
                )
            ]
        return response

    # -- asyncio plumbing ----------------------------------------------------

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_frame_async(reader)
                except (TornFrameError, RemoteStoreError, ConnectionError):
                    break  # torn or garbage frame: drop the connection
                if request is None:
                    break  # clean EOF between frames
                response = await asyncio.to_thread(self.handle, request)
                try:
                    await write_frame_async(writer, response)
                except (ConnectionError, RemoteStoreError):
                    break
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def start_tcp(self, host: str, port: int) -> tuple[str, int]:
        """Listen on TCP; returns the bound (host, port) — port 0 picks one."""
        server = await asyncio.start_server(self._client_connected, host, port)
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: str | pathlib.Path) -> str:
        """Listen on a unix socket; a stale *socket* file is replaced.

        Only something that actually is a socket is unlinked — binding
        over a regular file that happens to sit at the path would
        silently destroy data, so that is refused instead.
        """
        path = pathlib.Path(path)
        try:
            mode = path.lstat().st_mode
        except OSError:
            pass  # nothing there: clean bind
        else:
            if not stat.S_ISSOCK(mode):
                raise PersistError(
                    f"refusing to replace non-socket file at {path}"
                )
            with contextlib.suppress(OSError):
                path.unlink()
        server = await asyncio.start_unix_server(self._client_connected, str(path))
        self._servers.append(server)
        return str(path)

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's main loop)."""
        if not self._servers:
            raise RemoteStoreError("serve_forever() before any start_*()")
        waits: "list[Awaitable[None]]" = [
            server.serve_forever() for server in self._servers
        ]
        await asyncio.gather(*waits)

    async def aclose(self) -> None:
        """Stop listening and close every shard store (snapshots indexes)."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        for store in self.stores:
            store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreServer(root={str(self.root)!r}, shards={self.n_shards})"
