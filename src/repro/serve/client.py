"""The store client: a local ``RunStore`` face over a remote socket.

:class:`RemoteRunStore` speaks the frame protocol to a
:class:`~repro.serve.server.StoreServer`.  It supplies only raw record
and manifest I/O; the surface :func:`repro.runtime.run` consumes —
``result_cache`` / ``score_cache()`` / ``record_run`` and the record
codecs — is the one :class:`~repro.persist.store.RecordStore`
implementation a local :class:`~repro.persist.RunStore` uses too, so
``run(plan, config=RunConfig.from_url("tcp://host:port"))`` is the only
change a sweep needs to share one cache across machines.

Transport behaviour, in one place (:class:`StoreClient`):

* **pooling** — a small stack of connected sockets, checked out per
  request batch and returned on success, so concurrent threads of one
  process multiplex the server without a handshake per call;
* **pipelining** — a batch is written as N back-to-back frames in one
  ``sendall``, then the N responses are read in order; large
  ``get_many``/``put_many`` calls split into bounded chunks that travel
  this way, so latency is paid once per batch, not once per chunk;
* **retries** — every transport fault (refused, reset, torn frame, a
  server restart between batches) tears down the connection and replays
  the whole batch on a fresh one, on the deterministic
  :class:`~repro.runtime.faults.RetryPolicy` backoff schedule.  Replay
  is safe because the store is content-addressed: gets are reads and
  re-putting a record writes identical bytes.  Exhausted retries raise
  :class:`~repro.errors.RemoteStoreError`, which is *also* a retryable
  :class:`~repro.errors.ModelError` — so a run wrapped in a
  :class:`~repro.runtime.faults.FaultPolicy` treats a flaky store link
  like a flaky provider instead of aborting the sweep.

Errors the *server* reports (unknown op, malformed payload) re-raise as
:class:`~repro.errors.PersistError`/:class:`~repro.errors.StoreError` —
deterministic, not worth a retry.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Sequence

from repro.errors import (
    BreakerOpenError,
    PersistError,
    RemoteStoreError,
    ServerOverloadedError,
    StoreError,
)
from repro.obs import (
    fold_remote_spans,
    make_span_dict,
    new_span_id,
    propagation_context,
    render_prometheus,
)
from repro.persist.manifest import RunManifest
from repro.persist.store import (
    GCStats,
    RecordStore,
    StoreResultCache,
    StoreScoreCache,
    StoreStats,
    VerifyReport,
)
from repro.runtime.faults import FaultPolicy, RetryPolicy

from repro.serve.protocol import encode_frame, read_frame

#: keys / records per pipelined frame — bounds frame size, not batch size
CHUNK = 512


def _as_retry(policy: "RetryPolicy | FaultPolicy | None") -> RetryPolicy:
    if policy is None:
        return RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=1.0)
    if isinstance(policy, FaultPolicy):
        return policy.retry
    return policy


class StoreClient:
    """Pooled, pipelined, retrying frame transport to one server address.

    ``address`` is ``("tcp", (host, port))`` or ``("unix", path)`` (see
    :func:`repro.serve.url.parse_store_url`).  Thread-safe: each request
    batch checks a private socket out of the pool.
    """

    def __init__(
        self,
        address: tuple[str, Any],
        *,
        retry: "RetryPolicy | FaultPolicy | None" = None,
        pool_size: int = 4,
        connect_timeout: float = 10.0,
        health: Any = None,
    ) -> None:
        family, target = address
        if family not in ("tcp", "unix"):
            raise StoreError(f"unknown address family {family!r}")
        self.address = (family, target)
        self.retry = _as_retry(retry)
        self.pool_size = pool_size
        self.connect_timeout = connect_timeout
        # optional HealthTracker: while its breaker is open, requests
        # fail fast with BreakerOpenError instead of burning connect
        # timeouts; every transport outcome feeds its rolling window
        self.health = health
        self._mu = threading.Lock()
        self._pool: list[socket.socket] = []
        self._closed = False

    # -- connection pool -----------------------------------------------------

    def _connect(self) -> socket.socket:
        family, target = self.address
        try:
            if family == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.connect_timeout)
                sock.connect(str(target))
            else:
                host, port = target
                sock = socket.create_connection(
                    (host, port), timeout=self.connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise RemoteStoreError(
                f"cannot connect to store at {self.describe_address()}: {exc}"
            ) from exc
        sock.settimeout(None)
        return sock

    def _checkout(self) -> socket.socket:
        with self._mu:
            if self._closed:
                raise StoreError("store client is closed")
            if self._pool:
                return self._pool.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket) -> None:
        with self._mu:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        sock.close()

    def describe_address(self) -> str:
        family, target = self.address
        if family == "unix":
            return f"unix://{target}"
        host, port = target
        return f"tcp://{host}:{port}"

    def close(self) -> None:
        with self._mu:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            sock.close()

    # -- request path --------------------------------------------------------

    def request_many(
        self, requests: Sequence[dict[str, Any]]
    ) -> list[dict[str, Any]]:
        """Pipeline a batch: N frames out, N responses back, in order.

        The whole batch replays on a fresh connection after any
        transport fault — safe because every op is idempotent.  Server
        error frames are raised (typed) after transport success.
        """
        if not requests:
            return []
        ctx = propagation_context()
        if ctx is None:
            wire = b"".join(encode_frame(request) for request in requests)
            return self._exchange(requests, wire)
        # One client span covers the whole pipelined batch; every frame
        # carries its id as the trace parent, so the server-side spans
        # nest under it.  The span id is minted up front (it must travel
        # in the frames), the span itself is folded only after transport
        # success — a replayed batch therefore never double-records.
        op = str(requests[0].get("op", "?"))
        batch_span = new_span_id()
        frame_ctx = {"id": ctx["id"], "parent": batch_span}
        wire = b"".join(
            encode_frame({**request, "trace": frame_ctx})
            for request in requests
        )
        start_unix = time.time()
        t0 = time.perf_counter()
        responses = self._exchange(requests, wire)
        spans = [
            make_span_dict(
                f"remote:{op}",
                parent_id=ctx.get("parent"),
                start_unix=start_unix,
                duration_s=time.perf_counter() - t0,
                span_id=batch_span,
            )
        ]
        for response in responses:
            spans.extend(response.get("spans") or ())
        fold_remote_spans(spans)
        return responses

    def _exchange(
        self, requests: Sequence[dict[str, Any]], wire: bytes
    ) -> list[dict[str, Any]]:
        last: Exception | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                time.sleep(self.retry.delay(attempt - 1))
            if self.health is not None and not self.health.allow():
                raise BreakerOpenError(
                    f"store at {self.describe_address()} breaker is "
                    f"{self.health.state}; request refused"
                )
            try:
                sock = self._checkout()
            except RemoteStoreError as exc:
                if self.health is not None:
                    self.health.record_failure()
                last = exc
                continue
            try:
                sock.sendall(wire)
                responses = []
                for _ in requests:
                    response = read_frame(sock)
                    if response is None:
                        raise RemoteStoreError(
                            "server closed the connection mid-batch"
                        )
                    responses.append(response)
            except (OSError, RemoteStoreError) as exc:
                sock.close()  # poisoned: never back into the pool
                if self.health is not None:
                    self.health.record_failure()
                last = exc
                continue
            self._checkin(sock)
            # transport worked; an admission-control refusal is a healthy
            # server saying "not now" — retryable, but never a breaker
            # failure (the breaker guards reachability, not load)
            if self.health is not None:
                self.health.record_success()
            overload = next(
                (
                    response
                    for response in responses
                    if not response.get("ok")
                    and response.get("error_type")
                    == ServerOverloadedError.__name__
                ),
                None,
            )
            if overload is not None:
                last = ServerOverloadedError(
                    f"store at {self.describe_address()}: "
                    f"{overload.get('error', 'overloaded')}"
                )
                continue
            return [self._checked(response) for response in responses]
        if isinstance(last, ServerOverloadedError):
            raise last
        raise RemoteStoreError(
            f"store at {self.describe_address()} unreachable after "
            f"{self.retry.max_attempts} attempts: {last}"
        ) from last

    def request(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.request_many([request])[0]

    @staticmethod
    def _checked(response: dict[str, Any]) -> dict[str, Any]:
        if response.get("ok"):
            return response
        error = response.get("error", "unknown server error")
        error_type = response.get("error_type", "StoreError")
        if error_type == "PersistError":
            raise PersistError(f"server: {error}")
        raise StoreError(f"server ({error_type}): {error}")


class RemoteRunStore(RecordStore):
    """A :class:`~repro.persist.RunStore`-shaped client for one server.

    Drop-in wherever ``runtime.run`` takes a ``store``: it supplies the
    raw record and manifest I/O, and inherits the ``result_cache`` /
    ``score_cache()`` / ``record_run`` surface from
    :class:`~repro.persist.store.RecordStore`, with every record
    round-tripping through the server's shards instead of a local
    directory.  ``root`` is the URL — it only ever appears in messages
    and provenance.
    """

    backend = "remote"

    def __init__(
        self,
        url: str,
        address: tuple[str, Any] | None = None,
        *,
        retry: "RetryPolicy | FaultPolicy | None" = None,
        pool_size: int = 4,
        health: Any = None,
        client: Any = None,
    ) -> None:
        self.url = url
        if client is not None:
            # an injected transport (e.g. a ReplicatedStoreClient) —
            # anything with request / request_many / close
            self.client = client
        elif address is not None:
            self.client = StoreClient(
                address, retry=retry, pool_size=pool_size, health=health
            )
        else:
            raise StoreError("RemoteRunStore needs an address or a client")

    @property
    def root(self) -> str:
        return self.url

    # -- raw records (chunked + pipelined) -----------------------------------

    def get_records(
        self, kind: str, keys: Sequence[str]
    ) -> dict[str, dict[str, Any]]:
        keys = list(keys)
        requests = [
            {"op": "get_records", "kind": kind, "keys": keys[i : i + CHUNK]}
            for i in range(0, len(keys), CHUNK)
        ]
        records: dict[str, dict[str, Any]] = {}
        for response in self.client.request_many(requests):
            records.update(response["records"])
        return records

    def put_records(self, payloads: Sequence[dict[str, Any]]) -> int:
        payloads = list(payloads)
        requests = [
            {"op": "put_records", "payloads": payloads[i : i + CHUNK]}
            for i in range(0, len(payloads), CHUNK)
        ]
        return sum(
            response["count"] for response in self.client.request_many(requests)
        )

    # -- manifests -----------------------------------------------------------

    def put_manifest(self, manifest: RunManifest) -> None:
        self.client.request(
            {"op": "put_manifest", "manifest": manifest.to_payload()}
        )

    def manifest(self, run_id: str) -> RunManifest | None:
        response = self.client.request({"op": "get_manifest", "run_id": run_id})
        payload = response["manifest"]
        return RunManifest.from_payload(payload) if payload is not None else None

    def manifests(self) -> list[RunManifest]:
        response = self.client.request({"op": "manifests"})
        return [RunManifest.from_payload(p) for p in response["manifests"]]

    def latest_manifest(self, fingerprint: str | None = None) -> RunManifest | None:
        response = self.client.request(
            {"op": "latest_manifest", "fingerprint": fingerprint}
        )
        payload = response["manifest"]
        return RunManifest.from_payload(payload) if payload is not None else None

    # -- maintenance (remote gc / verify / key inventory) --------------------

    def keys(self, kind: str) -> list[str]:
        """Every live record key of one kind, across all server shards."""
        return self.client.request({"op": "list_keys", "kind": kind})["keys"]

    def gc(self) -> GCStats:
        """Compact every server shard; one aggregated :class:`GCStats`."""
        payloads = self.client.request({"op": "gc"})["gc"]
        reports = [GCStats.from_dict(payload) for payload in payloads]
        merged = reports[0]
        for report in reports[1:]:
            merged = merged.merged_with(report)
        return merged

    def verify(self) -> VerifyReport:
        """Audit every server shard; one aggregated :class:`VerifyReport`."""
        payloads = self.client.request({"op": "verify"})["verify"]
        reports = [VerifyReport.from_dict(payload) for payload in payloads]
        merged = reports[0]
        for report in reports[1:]:
            merged = merged.merged_with(report)
        return merged

    # -- introspection -------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.client.request({"op": "ping"})

    def shard_stats(self) -> list[StoreStats]:
        response = self.client.request({"op": "stats"})
        return [StoreStats.from_dict(payload) for payload in response["stats"]]

    def stats(self) -> StoreStats:
        """Service-wide totals as one StoreStats, rooted at the URL."""
        shards = self.shard_stats()
        return StoreStats(
            root=self.url,
            segments=sum(s.segments for s in shards),
            segment_bytes=sum(s.segment_bytes for s in shards),
            generations=sum(s.generations for s in shards),
            scores=sum(s.scores for s in shards),
            manifests=sum(s.manifests for s in shards),
            corrupt_skipped=sum(s.corrupt_skipped for s in shards),
            read_lru_hits=sum(s.read_lru_hits for s in shards),
            read_lru_misses=sum(s.read_lru_misses for s in shards),
            bytes_read=sum(s.bytes_read for s in shards),
        )

    def read_stats(self) -> dict[str, int]:
        return self.client.request({"op": "read_stats"})["read_stats"]

    def metrics(self) -> dict[str, Any]:
        """The server's live metrics: a ``repro.metrics/1`` snapshot under
        ``"metrics"`` plus the per-op/per-shard ``"summary"`` digest."""
        response = self.client.request({"op": "metrics"})
        return {
            "metrics": response["metrics"],
            "summary": response["summary"],
        }

    def dump_metrics(self) -> str:
        """The server's live metrics as Prometheus text exposition."""
        return render_prometheus(self.metrics()["metrics"])

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteRunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteRunStore({self.url!r})"


RemoteResultCache = StoreResultCache  # the name e2ebench/layers.py patches
RemoteScoreCache = StoreScoreCache  # the name e2ebench/layers.py patches
