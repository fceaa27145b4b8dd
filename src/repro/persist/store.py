"""The durable run store: content-addressed records + run manifests.

Layout of one store directory::

    store/
      LOCK                    advisory lockfile (fcntl; see locking.py)
      index.json              index snapshot (optional; rebuilt if stale)
      segments/
        segment-000001.seg    append-only checksummed records (gen + score)
        segment-000002.seg    …rotated past max_segment_bytes, or by GC
      manifests/
        run-….json            one RunManifest per recorded run

N processes may share one store concurrently: appends happen under the
exclusive lock (first scanning any bytes other writers added, so the
in-memory index never goes blind), scans under the shared lock.  The
in-memory index maps ``kind:key`` to ``(segment, offset, length)``;
record payloads stay on disk and are read on demand, so a store with
many thousands of generations costs the process only its key table.

**The read path is lock-free.**  A record read is one ``os.pread`` of
exactly ``length`` bytes at ``offset`` on a persistent per-segment file
descriptor — no file open, no seek, no ``fcntl`` round trip.  This is
safe because segments are strictly append-only (the byte range an index
entry points at is immutable once scanned), compaction replaces whole
files via rename (an already-open descriptor keeps reading the old
inode's complete contents, which for content-addressed records is the
identical data), and every read re-verifies the record checksum — any
racy read that does slip through decodes as corrupt and is retried
after one locked rescan.  Every read is a batch (a single get is a
batch of one) sorted by (segment, offset), so a cold sweep touches each
segment sequentially, and a small read-through LRU caches decoded
payloads so each record pays its checksum once.

Above that raw record I/O sits :class:`RecordStore`, the surface the
runtime consumes — the generation/score codecs, the
:class:`StoreResultCache`/:class:`StoreScoreCache` pair and
``record_run`` — written once and shared by :class:`RunStore` and the
networked :class:`repro.serve.RemoteRunStore`.

Crash safety comes from per-record checksums (a torn tail decodes as
one corrupt record, skipped with a warning and healed by the next
writer) and from write-temp-then-rename for every whole-file write
(index snapshot, compacted segments, manifests).  Appends group-commit:
one lock acquisition and one ``write`` batch per ``put_many``, with the
index snapshot debounced (rewritten only after ``snapshot_every``
records accumulate, and on ``close``).

:meth:`RunStore.gc` is the compaction pass: one streaming scan over the
segments that keeps the newest raw line per key (no re-encode, no
re-hash), drops corrupt lines and score entries whose generation
vanished, and writes the survivors into one fresh segment.
:meth:`RunStore.verify` is the auditor: a full checksum scan of every
segment plus a parse of every manifest.  :meth:`RunStore.latest_manifest`
(how ``record_run`` links a run to its predecessor) keeps a per-handle
index of the manifest directory, so it parses the manifests written
since the handle last looked, not the whole run history.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from repro.core.samples import Score
from repro.errors import PersistError, RecordCorruptError, StoreError
from repro.obs import span
from repro.runtime.cache import ScoreCache
from repro.runtime.units import Generation
from repro.stats import stats_dict

from repro.persist.locking import FileLock
from repro.persist.manifest import RunManifest, build_manifest
from repro.persist.records import (
    GEN_KIND,
    RECORD_KINDS,
    SCORE_KIND,
    decode_record,
    disk_score_key,
    encode_record,
    generation_from_payload,
    generation_payload,
    index_key,
    score_from_payload,
    score_payload,
)
from repro.persist.segments import (
    append_blobs,
    list_segments,
    scan_entries,
    scan_records,
    segment_name,
    segment_number,
    warn_corrupt,
    write_atomic,
)

# version 2: index entries carry (segment, offset, length) so reads are
# one positioned pread instead of an open+seek+readline
INDEX_VERSION = 2


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time shape of one store."""

    root: str
    segments: int
    segment_bytes: int
    generations: int
    scores: int
    manifests: int
    corrupt_skipped: int  # corrupt records seen by this process's scans
    read_lru_hits: int = 0  # record reads served from the decoded-payload LRU
    read_lru_misses: int = 0  # record reads that went to disk
    bytes_read: int = 0  # record bytes this process pread from segments

    def as_dict(self) -> dict[str, Any]:
        """Unified stats payload (``repro.stats`` schema, kind ``"store"``)."""
        return stats_dict(
            "store",
            root=self.root,
            segments=self.segments,
            segment_bytes=self.segment_bytes,
            generations=self.generations,
            scores=self.scores,
            manifests=self.manifests,
            corrupt_skipped=self.corrupt_skipped,
            read_lru_hits=self.read_lru_hits,
            read_lru_misses=self.read_lru_misses,
            bytes_read=self.bytes_read,
        )

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StoreStats":
        """Rebuild from :meth:`as_dict` output (marker keys ignored)."""
        from repro.stats import strip_markers

        try:
            return cls(**strip_markers(payload))
        except TypeError as exc:
            raise PersistError(f"malformed store-stats payload: {exc}") from None

    def describe(self) -> str:
        return (
            f"store {self.root}: {self.generations} generation(s), "
            f"{self.scores} score(s), {self.manifests} manifest(s) in "
            f"{self.segments} segment(s) / {self.segment_bytes} bytes; "
            f"reads: {self.read_lru_hits} LRU hit(s), "
            f"{self.read_lru_misses} miss(es), {self.bytes_read} byte(s)"
            + (f"; {self.corrupt_skipped} corrupt record(s) skipped"
               if self.corrupt_skipped else "")
        )


@dataclass(frozen=True)
class VerifyReport:
    """Result of a full store audit."""

    segments: int
    records: int
    generations: int
    scores: int
    stale: int  # superseded duplicates awaiting GC
    manifests: int
    problems: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.problems

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the server's ``verify`` op ships this)."""
        return {
            "segments": self.segments,
            "records": self.records,
            "generations": self.generations,
            "scores": self.scores,
            "stale": self.stale,
            "manifests": self.manifests,
            "problems": list(self.problems),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "VerifyReport":
        try:
            return cls(
                segments=int(payload["segments"]),
                records=int(payload["records"]),
                generations=int(payload["generations"]),
                scores=int(payload["scores"]),
                stale=int(payload["stale"]),
                manifests=int(payload["manifests"]),
                problems=tuple(payload["problems"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(
                f"malformed verify-report payload: {exc}"
            ) from None

    def merged_with(self, other: "VerifyReport") -> "VerifyReport":
        """Combine two shard audits into one store-wide report."""
        return VerifyReport(
            segments=self.segments + other.segments,
            records=self.records + other.records,
            generations=self.generations + other.generations,
            scores=self.scores + other.scores,
            stale=self.stale + other.stale,
            manifests=self.manifests + other.manifests,
            problems=self.problems + other.problems,
        )

    def describe(self) -> str:
        status = "clean" if self.clean else f"{len(self.problems)} problem(s)"
        lines = [
            f"verify: {status} — {self.records} record(s) "
            f"({self.generations} generation(s), {self.scores} score(s), "
            f"{self.stale} stale) in {self.segments} segment(s), "
            f"{self.manifests} manifest(s)"
        ]
        lines += [f"  - {problem}" for problem in self.problems]
        return "\n".join(lines)


@dataclass(frozen=True)
class GCStats:
    """What one compaction pass reclaimed."""

    records_before: int
    records_after: int
    corrupt_dropped: int
    stale_dropped: int
    orphan_scores_dropped: int
    bytes_before: int
    bytes_after: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the server's ``gc`` op ships this)."""
        return {
            "records_before": self.records_before,
            "records_after": self.records_after,
            "corrupt_dropped": self.corrupt_dropped,
            "stale_dropped": self.stale_dropped,
            "orphan_scores_dropped": self.orphan_scores_dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GCStats":
        try:
            return cls(**{
                field: int(payload[field])
                for field in (
                    "records_before", "records_after", "corrupt_dropped",
                    "stale_dropped", "orphan_scores_dropped",
                    "bytes_before", "bytes_after",
                )
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"malformed gc-stats payload: {exc}") from None

    def merged_with(self, other: "GCStats") -> "GCStats":
        """Combine two shard compactions into one store-wide summary."""
        return GCStats(
            records_before=self.records_before + other.records_before,
            records_after=self.records_after + other.records_after,
            corrupt_dropped=self.corrupt_dropped + other.corrupt_dropped,
            stale_dropped=self.stale_dropped + other.stale_dropped,
            orphan_scores_dropped=(
                self.orphan_scores_dropped + other.orphan_scores_dropped
            ),
            bytes_before=self.bytes_before + other.bytes_before,
            bytes_after=self.bytes_after + other.bytes_after,
        )

    def describe(self) -> str:
        return (
            f"gc: {self.records_before} -> {self.records_after} record(s) "
            f"({self.stale_dropped} stale, {self.corrupt_dropped} corrupt, "
            f"{self.orphan_scores_dropped} orphan score(s) dropped), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


def _index_entry(manifest: RunManifest) -> tuple[float, str, str]:
    """What the manifest index keeps of one parsed manifest."""
    return (manifest.started_unix, manifest.run_id, manifest.plan_fingerprint)


class RecordStore:
    """The store surface the runtime consumes, over raw record I/O.

    A subclass supplies raw record I/O (``get_records``/``put_records``),
    manifest I/O (``put_manifest``/``latest_manifest``), ``stats()``,
    ``read_stats()``, ``root`` and a ``backend`` name; this class adds
    the typed generation/score codecs, the runtime's cache pair and
    ``record_run`` on top, once for every backend.

    A warm run costs the store a fixed number of calls, not one per
    unit: one batched ``get_records`` for its generations, one for its
    scores (:meth:`StoreScoreCache.prefetch`), and one
    ``latest_manifest`` plus one ``put_manifest`` in ``record_run`` —
    and :meth:`RunStore.latest_manifest`, which a server answers with
    too, parses only the manifests written since its last call.
    """

    backend: str  # reported as ``stats()["backend"]`` by both caches
    _result_cache: "StoreResultCache | None" = None

    # -- generations and scores ----------------------------------------------

    def get_generation(self, key: str) -> Generation | None:
        payload = self.get_records(GEN_KIND, [key]).get(key)
        return generation_from_payload(payload) if payload is not None else None

    def get_generations(self, keys: Sequence[str]) -> dict[str, Generation]:
        """Batched lookup; returns only the keys present in the store —
        the cache-miss set is ``keys - result``."""
        return {
            key: generation_from_payload(payload)
            for key, payload in self.get_records(GEN_KIND, keys).items()
        }

    def put_generation(self, generation: Generation) -> None:
        self.put_generations([generation])

    def put_generations(self, generations: Iterable[Generation]) -> None:
        self.put_records([generation_payload(gen) for gen in generations])

    def get_score(self, disk_key: str) -> Score | None:
        payload = self.get_records(SCORE_KIND, [disk_key]).get(disk_key)
        return score_from_payload(payload) if payload is not None else None

    def put_score(self, disk_key: str, gen_key: str, score: Score) -> None:
        self.put_records([score_payload(disk_key, gen_key, score)])

    # -- runtime integration -------------------------------------------------

    @property
    def result_cache(self) -> "StoreResultCache":
        """The store's :class:`~repro.runtime.cache.ResultCache` facade."""
        if self._result_cache is None:
            self._result_cache = StoreResultCache(self)
        return self._result_cache

    def score_cache(self, maxsize: int = 4096) -> "StoreScoreCache":
        """A fresh write-through score cache backed by this store."""
        return StoreScoreCache(self, maxsize=maxsize)

    def record_run(
        self,
        *,
        plan,
        stats,
        executor: object,
        cache: object,
        started_unix: float,
        wall_seconds: float,
        failures: Sequence = (),
        resumed_from: str | None = None,
        trace: dict | None = None,
    ) -> RunManifest:
        """Durably record one executed run; links repeats of the same plan.

        ``failures`` persists the run's quarantined
        :class:`~repro.runtime.faults.UnitFailure` records, so a later
        session can resume exactly the failed units.  ``resumed_from``
        pins the predecessor explicitly (``RunConfig(resume_from=…)``);
        when omitted, the latest same-fingerprint run is linked.
        ``trace`` attaches the run's serialized :class:`~repro.obs.Trace`.
        """
        manifest = build_manifest(
            plan=plan,
            stats=stats,
            executor=executor,
            cache=cache,
            started_unix=started_unix,
            wall_seconds=wall_seconds,
            failures=failures,
            resumed_from=resumed_from,
            latest_for=self.latest_manifest,
            trace=trace,
        )
        self.put_manifest(manifest)
        return manifest


class RunStore(RecordStore):
    """One on-disk store directory shared by any number of processes."""

    backend = "disk"

    def __init__(
        self,
        root: str | pathlib.Path,
        *,
        create: bool = True,
        max_segment_bytes: int = 8 << 20,
        fsync: bool = False,
        read_cache_entries: int = 1024,
        snapshot_every: int = 4096,
    ) -> None:
        if max_segment_bytes <= 0:
            raise PersistError(
                f"max_segment_bytes must be positive, got {max_segment_bytes}"
            )
        if read_cache_entries < 0:
            raise PersistError(
                f"read_cache_entries must be >= 0, got {read_cache_entries}"
            )
        if snapshot_every <= 0:
            raise PersistError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        self.root = pathlib.Path(root)
        self._segments_dir = self.root / "segments"
        self._manifests_dir = self.root / "manifests"
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store path {self.root} is not a directory")
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
            self._segments_dir.mkdir(exist_ok=True)
            self._manifests_dir.mkdir(exist_ok=True)
        elif not (self._segments_dir.is_dir() and self._manifests_dir.is_dir()):
            # opening read-only (the CLI) must neither scaffold missing
            # directories nor report a typo'd path as a clean empty store
            raise StoreError(f"no store at {self.root}")
        self.max_segment_bytes = max_segment_bytes
        self.fsync = fsync
        self.read_cache_entries = read_cache_entries
        self.snapshot_every = snapshot_every
        self._lock = FileLock(self.root / "LOCK")
        self._mu = threading.Lock()  # guards index, descriptors and the read LRU
        self._index: dict[str, tuple[str, int, int]] = {}
        self._scanned: dict[str, int] = {}  # segment name -> bytes indexed
        self._fds: dict[str, int] = {}  # segment name -> persistent read fd
        self._read_lru: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._read_lru_hits = 0
        self._read_lru_misses = 0
        self._bytes_read = 0
        self._records_since_snapshot = 0
        self._corrupt_skipped = 0
        # manifest file name -> ((st_ino, st_mtime_ns, st_size),
        # (started_unix, run_id, plan_fingerprint), or None when malformed)
        self._manifest_mu = threading.Lock()
        self._manifest_index: dict[
            str, tuple[tuple[int, int, int], tuple[float, str, str] | None]
        ] = {}
        self._load_index_snapshot()
        self.refresh()

    # -- index maintenance ---------------------------------------------------

    def _snapshot_path(self) -> pathlib.Path:
        return self.root / "index.json"

    def _load_index_snapshot(self) -> None:
        """Seed the index from ``index.json`` when it still matches disk."""
        path = self._snapshot_path()
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("version") != INDEX_VERSION:
            return
        scanned = payload.get("scanned")
        entries = payload.get("entries")
        if not isinstance(scanned, dict) or not isinstance(entries, dict):
            return
        for name, offset in scanned.items():
            seg = self._segments_dir / name
            if segment_number(name) is None or not seg.is_file():
                return  # segment vanished (GC elsewhere): rebuild from scratch
            if not isinstance(offset, int) or seg.stat().st_size < offset:
                return  # segment shrank: snapshot is from another universe
        for entry in entries.values():
            if not isinstance(entry, list) or len(entry) != 3:
                return
            name, offset, length = entry
            # type(...) is int: bools pass isinstance(..., int)
            if (
                not isinstance(name, str)
                or name not in scanned
                or type(offset) is not int
                or type(length) is not int
                or offset < 0
                or length <= 0
                or offset + length > scanned[name]
            ):
                return  # an entry that cannot read back: rescan instead
        self._scanned = {name: offset for name, offset in scanned.items()}
        self._index = {
            key: (entry[0], entry[1], entry[2]) for key, entry in entries.items()
        }

    def _snapshot_blob_locked(self) -> bytes:
        """Serialize the index; caller holds ``self._mu``."""
        payload = {
            "version": INDEX_VERSION,
            "scanned": dict(self._scanned),
            "entries": {key: list(entry) for key, entry in self._index.items()},
        }
        return json.dumps(payload, sort_keys=True).encode("ascii")

    def write_index_snapshot(self) -> None:
        """Persist the index so the next open skips the full scan."""
        with self._mu:
            blob = self._snapshot_blob_locked()
            self._records_since_snapshot = 0
        with self._lock.exclusive():
            write_atomic(self._snapshot_path(), blob)

    def _note_corrupt(self, path: pathlib.Path, offset: int, reason: str) -> None:
        self._corrupt_skipped += 1
        warn_corrupt(path, offset, reason)

    def _scan_locked(self) -> None:
        """Index every byte other processes appended since the last scan.

        Caller holds ``self._mu`` and at least the shared file lock.  A
        segment set that lost members (GC in another process) invalidates
        the whole index and forces a rebuild.
        """
        segments = list_segments(self._segments_dir)
        names = {seg.name for seg in segments}
        if any(name not in names for name in self._scanned):
            # segment set changed under us (GC in another process): the
            # whole index and every open descriptor refer to dead files
            self._index.clear()
            self._scanned.clear()
            self._drop_fds_locked()
            self._read_lru.clear()
        for seg in segments:
            size = seg.stat().st_size
            start = self._scanned.get(seg.name, 0)
            if size <= start:
                continue
            for offset, line, payload in scan_entries(
                seg, start, on_corrupt=self._note_corrupt
            ):
                self._index[index_key(payload["kind"], payload["key"])] = (
                    seg.name,
                    offset,
                    len(line),
                )
            # consume up to the last terminated line only: a torn tail
            # stays unconsumed so its healed rewrite is rescanned later
            self._scanned[seg.name] = self._terminated_end(seg, start, size)

    @staticmethod
    def _terminated_end(seg: pathlib.Path, start: int, size: int) -> int:
        """Offset just past the last newline in ``seg[start:size]``."""
        with seg.open("rb") as handle:
            handle.seek(start)
            data = handle.read(size - start)
        last_nl = data.rfind(b"\n")
        return start + last_nl + 1 if last_nl >= 0 else start

    def refresh(self) -> None:
        """Pick up records appended by other processes."""
        with self._mu:
            with self._lock.shared():
                self._scan_locked()

    # -- record I/O ----------------------------------------------------------

    def _active_segment_locked(self) -> pathlib.Path:
        """The segment new appends go to (rotating past the size cap)."""
        segments = list_segments(self._segments_dir)
        if not segments:
            return self._segments_dir / segment_name(1)
        active = segments[-1]
        if active.stat().st_size >= self.max_segment_bytes:
            number = segment_number(active.name) or 0
            return self._segments_dir / segment_name(number + 1)
        return active

    def _append_payloads(self, payloads: list[dict[str, Any]]) -> None:
        if not payloads:
            return
        blobs = [encode_record(payload) for payload in payloads]
        with span("store-io"), span("append"):
            with self._mu:
                with self._lock.exclusive():
                    # first index what other writers appended, so our offsets
                    # never shadow unscanned foreign bytes
                    self._scan_locked()
                    seg = self._active_segment_locked()
                    offsets = append_blobs(seg, blobs, fsync=self.fsync)
                    for payload, blob, offset in zip(payloads, blobs, offsets):
                        ikey = index_key(payload["kind"], payload["key"])
                        self._index[ikey] = (seg.name, offset, len(blob))
                        self._read_lru.pop(ikey, None)  # superseded payload
                    self._scanned[seg.name] = seg.stat().st_size
                    self._records_since_snapshot += len(payloads)
                    if self._records_since_snapshot >= self.snapshot_every:
                        # debounced group-commit of the index: amortize the
                        # snapshot rewrite over many appended records (close()
                        # still writes a final snapshot for the tail)
                        write_atomic(
                            self._snapshot_path(), self._snapshot_blob_locked()
                        )
                        self._records_since_snapshot = 0

    # -- positioned reads ----------------------------------------------------

    def _drop_fds_locked(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()

    def _pread_locked(self, entry: tuple[str, int, int]) -> bytes:
        """One positioned read of an indexed record; caller holds ``_mu``.

        Lock-free with respect to the file lock: the byte range of an
        indexed entry is immutable (segments are append-only, compaction
        replaces whole files), and the caller re-checksums the result.
        """
        name, offset, length = entry
        fd = self._fds.get(name)
        if fd is None:
            fd = self._fds[name] = os.open(self._segments_dir / name, os.O_RDONLY)
        data = os.pread(fd, length, offset)
        if len(data) != length:
            raise RecordCorruptError(
                f"short read: wanted {length} bytes at {offset}, got {len(data)}"
            )
        self._bytes_read += length
        return data

    def _drop_stale_locked(self, ikey: str, entry: tuple[str, int, int]) -> None:
        """Forget an index entry (and its descriptor) that failed to read back."""
        if self._index.get(ikey) == entry:
            del self._index[ikey]
        fd = self._fds.pop(entry[0], None)
        if fd is not None:
            os.close(fd)

    def _read_many(self, kind: str, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batched record reads: LRU first, then disk in (segment, offset) order.

        Returns payloads for the keys present in the store; absent keys
        are simply missing from the result.  Keys the index does not
        know, or whose entry went stale (typically a concurrent GC
        compacted the segment away), get one rescan and one more pass:
        the live record is in the compacted segment, and a warm store
        must not read as cold just because another process tidied it.
        """
        out: dict[str, dict[str, Any]] = {}
        with span("store-io"), span("read"):
            retry = self._read_pass(kind, keys, out)
            if retry:
                self.refresh()
                self._read_pass(kind, retry, out)
        return out

    def _read_pass(
        self, kind: str, keys: Sequence[str], out: dict[str, dict[str, Any]]
    ) -> list[str]:
        """One read pass into ``out``; returns the missing or stale keys."""
        retry: list[str] = []
        todo: list[tuple[str, str, tuple[str, int, int]]] = []
        raw: list[tuple[str, str, tuple[str, int, int], bytes]] = []
        with self._mu:
            for key in keys:
                ikey = index_key(kind, key)
                cached = self._read_lru.get(ikey)
                if cached is not None:
                    self._read_lru.move_to_end(ikey)
                    self._read_lru_hits += 1
                    out[key] = cached
                    continue
                entry = self._index.get(ikey)
                if entry is None:
                    retry.append(key)
                else:
                    todo.append((key, ikey, entry))
            todo.sort(key=lambda item: (item[2][0], item[2][1]))
            for key, ikey, entry in todo:
                try:
                    raw.append((key, ikey, entry, self._pread_locked(entry)))
                except (OSError, RecordCorruptError):
                    self._drop_stale_locked(ikey, entry)
                    retry.append(key)
        # decode outside the lock, so concurrent readers overlap
        decoded: list[tuple[str, dict[str, Any]]] = []
        corrupt: list[tuple[str, tuple[str, int, int]]] = []
        for key, ikey, entry, data in raw:
            try:
                payload = decode_record(data)
            except RecordCorruptError:
                corrupt.append((ikey, entry))
                retry.append(key)
                continue
            if payload["kind"] != kind or payload["key"] != key:
                # raised before the LRU update below: a mismatched record
                # must never be served silently on the next get
                raise PersistError(
                    f"index points {ikey!r} at a record for "
                    f"{payload['kind']}:{payload['key']}"
                )
            decoded.append((ikey, payload))
            out[key] = payload
        if not (corrupt or decoded):
            return retry
        with self._mu:
            for ikey, entry in corrupt:
                self._drop_stale_locked(ikey, entry)
            # a corrupt read is retried, and counted, by the next pass
            self._read_lru_misses += len(decoded)
            cap = self.read_cache_entries
            if cap and len(decoded) >= cap:
                # a batch at or above capacity replaces the cache outright
                # instead of churning insert+evict per record
                self._read_lru.clear()
                self._read_lru.update(decoded[-cap:])
            elif cap:
                for ikey, payload in decoded:
                    self._read_lru[ikey] = payload
                    self._read_lru.move_to_end(ikey)
                while len(self._read_lru) > cap:
                    self._read_lru.popitem(last=False)
        return retry

    # -- raw record I/O (the networked store server's shard surface) ---------

    def get_records(self, kind: str, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batched raw record payloads for one kind; absent keys omitted.

        The JSON-ready form the wire protocol ships verbatim — no
        decode-to-dataclass/re-encode round trip on the server.
        """
        if kind not in RECORD_KINDS:
            raise PersistError(f"unknown record kind {kind!r}")
        return self._read_many(kind, keys)

    def keys(self, kind: str) -> list[str]:
        """Every live record key of one kind (sorted).

        The inventory surface replica reconciliation
        (``python -m repro.serve sync``) diffs: cheap — one index scan,
        no record reads.
        """
        if kind not in RECORD_KINDS:
            raise PersistError(f"unknown record kind {kind!r}")
        self.refresh()
        prefix = f"{kind}:"
        with self._mu:
            return sorted(
                key[len(prefix):]
                for key in self._index
                if key.startswith(prefix)
            )

    def put_records(self, payloads: Sequence[dict[str, Any]]) -> int:
        """Append raw record payloads (as produced by the record codecs).

        Each payload must carry a valid ``kind`` and ``key``; the append
        is one group-commit exactly like :meth:`put_generations`.
        """
        batch = list(payloads)
        for payload in batch:
            if (
                not isinstance(payload, dict)
                or payload.get("kind") not in RECORD_KINDS
                or not isinstance(payload.get("key"), str)
            ):
                raise PersistError(
                    f"malformed record payload: {str(payload)[:80]!r}"
                )
        self._append_payloads(batch)
        return len(batch)

    # -- manifests -----------------------------------------------------------

    def put_manifest(self, manifest: RunManifest) -> None:
        """Durably write one already-built manifest (atomic rename)."""
        blob = json.dumps(manifest.to_payload(), sort_keys=True, indent=1)
        write_atomic(
            self._manifests_dir / f"{manifest.run_id}.json", blob.encode("ascii")
        )

    @staticmethod
    def _read_manifest(path: pathlib.Path) -> RunManifest | None:
        """One manifest file, or ``None`` when unreadable or malformed."""
        try:
            return RunManifest.from_payload(json.loads(path.read_text()))
        except (OSError, ValueError, PersistError):
            return None  # verify() reports these; listing stays usable

    def manifest(self, run_id: str) -> RunManifest | None:
        """One recorded run by id (``None`` when absent or unreadable)."""
        return self._read_manifest(self._manifests_dir / f"{run_id}.json")

    def manifests(self) -> list[RunManifest]:
        """Every recorded run, oldest first."""
        out: list[RunManifest] = []
        for path in sorted(self._manifests_dir.glob("*.json")):
            manifest = self._read_manifest(path)
            if manifest is not None:
                out.append(manifest)
        out.sort(key=lambda m: (m.started_unix, m.run_id))
        return out

    def latest_manifest(self, fingerprint: str | None = None) -> RunManifest | None:
        """The most recent run, optionally restricted to one plan fingerprint.

        Always the last matching entry of :meth:`manifests` — the same
        ``(started_unix, run_id)`` order, the same skipping of unreadable
        or malformed files — but paid for in new files, not in history:
        the handle keeps an index of every manifest file's stat signature
        and sort key, so a call is one ``os.scandir``, a parse of each
        new or changed file, and a parse of the winner.  The store only
        ever replaces a manifest by rename, which gives the file a new
        inode, so the signature sees every rewrite.
        """
        with self._manifest_mu:
            while True:
                name = self._latest_name_locked(fingerprint)
                if name is None:
                    return None
                manifest = self._read_manifest(self._manifests_dir / name)
                if manifest is not None and (
                    self._manifest_index[name][1] == _index_entry(manifest)
                ):
                    return manifest
                # rewritten or removed since the scan: rescan and re-pick
                del self._manifest_index[name]

    def _latest_name_locked(self, fingerprint: str | None) -> str | None:
        """Bring the manifest index up to date; the winning file's name.

        Caller holds ``self._manifest_mu``.
        """
        index = self._manifest_index
        try:
            with os.scandir(self._manifests_dir) as listing:
                entries = [e for e in listing if e.name.endswith(".json")]
        except FileNotFoundError:
            entries = []  # as manifests() sees a missing directory: no runs
        seen: set[str] = set()
        for entry in entries:
            try:
                st = entry.stat()
            except OSError:
                continue  # vanished since the listing
            seen.add(entry.name)
            signature = (st.st_ino, st.st_mtime_ns, st.st_size)
            known = index.get(entry.name)
            if known is not None and known[0] == signature:
                continue
            manifest = self._read_manifest(pathlib.Path(entry.path))
            index[entry.name] = (
                signature, None if manifest is None else _index_entry(manifest)
            )
        for name in index.keys() - seen:
            del index[name]
        # ties on (started_unix, run_id) go to the later file name, as in
        # manifests(): a stable sort over the name-sorted listing
        ranked = (
            (key[0], key[1], name)
            for name, (_signature, key) in index.items()
            if key is not None and (fingerprint is None or key[2] == fingerprint)
        )
        best = max(ranked, default=None)
        return best[2] if best is not None else None

    # -- maintenance ---------------------------------------------------------

    def read_stats(self) -> dict[str, int]:
        """The read-path counters, without the disk rescan ``stats()`` pays."""
        with self._mu:
            return {
                "read_lru_hits": self._read_lru_hits,
                "read_lru_misses": self._read_lru_misses,
                "bytes_read": self._bytes_read,
            }

    def stats(self) -> StoreStats:
        self.refresh()
        with self._mu:
            generations = sum(
                1 for key in self._index if key.startswith(f"{GEN_KIND}:")
            )
            scores = sum(1 for key in self._index if key.startswith(f"{SCORE_KIND}:"))
            corrupt = self._corrupt_skipped
            read_hits = self._read_lru_hits
            read_misses = self._read_lru_misses
            bytes_read = self._bytes_read
        segments = list_segments(self._segments_dir)
        return StoreStats(
            root=str(self.root),
            segments=len(segments),
            segment_bytes=sum(seg.stat().st_size for seg in segments),
            generations=generations,
            scores=scores,
            manifests=len(list(self._manifests_dir.glob("*.json"))),
            corrupt_skipped=corrupt,
            read_lru_hits=read_hits,
            read_lru_misses=read_misses,
            bytes_read=bytes_read,
        )

    def verify(self) -> VerifyReport:
        """Full audit: re-checksum every record, parse every manifest."""
        problems: list[str] = []
        records = stale = 0
        kinds: dict[str, str] = {}

        def flag(path: pathlib.Path, offset: int, reason: str) -> None:
            problems.append(f"{path.name}@{offset}: {reason}")

        with self._lock.shared():
            segments = list_segments(self._segments_dir)
            for seg in segments:
                for _offset, payload in scan_records(seg, 0, on_corrupt=flag):
                    records += 1
                    ikey = index_key(payload["kind"], payload["key"])
                    if ikey in kinds:
                        stale += 1
                    else:
                        kinds[ikey] = payload["kind"]
        generations = sum(1 for kind in kinds.values() if kind == GEN_KIND)
        scores = sum(1 for kind in kinds.values() if kind == SCORE_KIND)
        manifest_paths = sorted(self._manifests_dir.glob("*.json"))
        manifests = 0
        for path in manifest_paths:
            try:
                RunManifest.from_payload(json.loads(path.read_text()))
                manifests += 1
            except (OSError, ValueError, PersistError) as exc:
                problems.append(f"manifest {path.name}: {exc}")
        return VerifyReport(
            segments=len(segments),
            records=records,
            generations=generations,
            scores=scores,
            stale=stale,
            manifests=manifests,
            problems=tuple(problems),
        )

    def gc(self) -> GCStats:
        """Compact: rewrite live records into one fresh segment, drop the rest.

        Live means: the newest record per key, checksum-valid, and — for
        scores — still referencing a generation present in the store.

        One streaming pass: each segment is scanned once, the newest raw
        line per key is kept verbatim (no re-encode, no re-hash — the
        checksum was just verified by the scan), stale/corrupt/orphan
        counting happens inline, and the survivors are joined into the
        compacted segment in one allocation.
        """
        with self._mu:
            with self._lock.exclusive():
                segments = list_segments(self._segments_dir)
                bytes_before = sum(seg.stat().st_size for seg in segments)
                seen = corrupt = 0
                # ikey -> (raw line, kind, gen key for scores) — the raw
                # bytes are reused verbatim by the compacted segment
                live: dict[str, tuple[bytes, str, str | None]] = {}

                def count_corrupt(
                    path: pathlib.Path, offset: int, reason: str
                ) -> None:
                    nonlocal corrupt
                    corrupt += 1

                for seg in segments:
                    for _offset, line, payload in scan_entries(
                        seg, 0, on_corrupt=count_corrupt
                    ):
                        seen += 1
                        live[index_key(payload["kind"], payload["key"])] = (
                            line,
                            payload["kind"],
                            payload.get("gen"),
                        )
                stale = seen - len(live)
                gen_keys = {
                    ikey.split(":", 1)[1]
                    for ikey, entry in live.items()
                    if entry[1] == GEN_KIND
                }
                orphans = [
                    ikey
                    for ikey, entry in live.items()
                    if entry[1] == SCORE_KIND and entry[2] not in gen_keys
                ]
                for ikey in orphans:
                    del live[ikey]

                next_number = (
                    (segment_number(segments[-1].name) or 0) + 1 if segments else 1
                )
                self._index.clear()
                self._scanned.clear()
                self._drop_fds_locked()
                self._read_lru.clear()
                bytes_after = 0
                if live:
                    target = self._segments_dir / segment_name(next_number)
                    lines: list[bytes] = []
                    offset = 0
                    for ikey, (line, _kind, _gen) in sorted(live.items()):
                        self._index[ikey] = (target.name, offset, len(line))
                        lines.append(line)
                        offset += len(line)
                    write_atomic(target, b"".join(lines))
                    bytes_after = offset
                    self._scanned[target.name] = offset
                for seg in segments:
                    seg.unlink()
        self.write_index_snapshot()
        return GCStats(
            records_before=seen,
            records_after=len(live),
            corrupt_dropped=corrupt,
            stale_dropped=stale,
            orphan_scores_dropped=len(orphans),
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    def close(self) -> None:
        """Snapshot the index and release the persistent read descriptors."""
        self.write_index_snapshot()
        with self._mu:
            self._drop_fds_locked()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunStore({str(self.root)!r})"


class StoreResultCache:
    """:class:`~repro.runtime.cache.ResultCache` backend over a store.

    The durable backend next to ``InMemoryResultCache`` — same protocol
    (``get_many``/``put_many``/``__len__``/``stats``), but entries
    survive the process and are shared with every process pointed at
    the same store: a local :class:`RunStore` directory (under its file
    lock) or a store server's shards.  ``stats()["backend"]`` is the
    store's ``backend`` (``"disk"`` or ``"remote"``).
    """

    def __init__(self, store: RecordStore) -> None:
        self._store = store
        self._mu = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0

    @property
    def store(self) -> RecordStore:
        return self._store

    def get_many(self, keys: Sequence[str]) -> dict[str, Generation]:
        """Batched lookup: one sorted-by-offset read pass over the store."""
        found = self._store.get_generations(keys)
        with self._mu:
            self._hits += len(found)
            self._misses += len(keys) - len(found)
        return {key: gen.as_cached() for key, gen in found.items()}

    def put_many(self, generations: Iterable[Generation]) -> None:
        batch = list(generations)
        self._store.put_generations(batch)
        with self._mu:
            self._puts += len(batch)

    def __len__(self) -> int:
        return self._store.stats().generations

    def __contains__(self, key: str) -> bool:
        return self._store.get_generation(key) is not None

    def read_stats(self) -> dict[str, int]:
        """Cheap read-path counters (the runner samples these per run)."""
        return self._store.read_stats()

    def stats(self) -> dict[str, int | str]:
        with self._mu:
            hits, misses, puts = self._hits, self._misses, self._puts
        store_stats = self._store.stats()
        return stats_dict(
            "result_cache",
            backend=self._store.backend,
            entries=store_stats.generations,
            hits=hits,
            misses=misses,
            puts=puts,
            read_lru_hits=store_stats.read_lru_hits,
            read_lru_misses=store_stats.read_lru_misses,
            bytes_read=store_stats.bytes_read,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreResultCache({str(self._store.root)!r})"


class StoreScoreCache:
    """Write-through score memo: in-memory LRU over durable score records.

    Drop-in for :class:`~repro.runtime.cache.ScoreCache` (same
    ``get``/``put``/``prefetch`` surface, keyed by the
    :func:`repro.runtime.runner.score_key` tuple).  Entries whose scorer
    fingerprint has a stable cross-process identity are written through
    to the store; the rest stay in the process-local LRU.

    Reads are batched: the runner's one :meth:`prefetch` per run asks
    the store for every durable score the run will look up in one
    ``get_records`` call (one round trip per chunk on a remote store,
    not one per key), and the per-key :meth:`get` calls that follow
    are answered from that batch.  ``disk_hits`` still counts one hit
    per key the store supplied, at the get that consumes it.
    """

    def __init__(self, store: RecordStore, maxsize: int = 4096) -> None:
        self._store = store
        self._memory = ScoreCache(maxsize)
        self._mu = threading.Lock()
        # prefetched keys no get has consumed yet -> whether the store had them
        self._prefetched: dict[Hashable, bool] = {}
        self._disk_hits = 0
        self._disk_puts = 0
        self._unpersistable = 0

    def prefetch(self, keys: Iterable[Hashable]) -> None:
        """Read the durable scores of ``keys`` in one batched request.

        Skips keys already in memory and keys with no durable form, and
        reads at most ``maxsize`` keys (the first ones, which the gets
        reach first), so a prefetch never evicts its own entries.  The
        memory LRU is filled directly, never through :meth:`get` or
        :meth:`put`: those stay one call per unit lookup and one per
        computed score.  A key the batch did not find reads as a miss
        at its get, without a second trip to the store.
        """
        wanted: dict[str, Hashable] = {}  # disk key -> score key
        for key in keys:
            if len(wanted) >= self._memory.maxsize:
                break
            if key in self._memory:
                continue
            dkey = disk_score_key(key)
            if dkey is not None:
                wanted[dkey] = key
        if not wanted:
            return
        payloads = self._store.get_records(SCORE_KIND, list(wanted))
        self._memory.fill(
            (wanted[dkey], score_from_payload(payload))
            for dkey, payload in payloads.items()
        )
        with self._mu:
            self._prefetched.update(
                (key, dkey in payloads) for dkey, key in wanted.items()
            )
            while len(self._prefetched) > self._memory.maxsize:
                # bounded like the memo: the oldest unconsumed entry goes
                del self._prefetched[next(iter(self._prefetched))]

    def get(self, key: Hashable) -> object | None:
        found = None
        if self._prefetched:
            with self._mu:
                found = self._prefetched.pop(key, None)
        score = self._memory.get(key)
        if score is not None:
            if found:
                with self._mu:
                    self._disk_hits += 1
            return score
        if found is False:
            return None  # the prefetch already asked the store
        dkey = disk_score_key(key)
        if dkey is None:
            return None
        score = self._store.get_score(dkey)
        if score is None:
            return None
        self._memory.put(key, score)
        with self._mu:
            self._disk_hits += 1
        return score

    def put(self, key: Hashable, score: object) -> None:
        self._memory.put(key, score)
        dkey = disk_score_key(key)
        if dkey is None or not isinstance(score, Score):
            with self._mu:
                self._unpersistable += 1
            return
        assert isinstance(key, tuple)  # disk_score_key validated the shape
        self._store.put_score(dkey, key[0], score)
        with self._mu:
            self._disk_puts += 1

    def __len__(self) -> int:
        return len(self._memory)

    def stats(self) -> dict[str, int | str]:
        with self._mu:
            return stats_dict(
                "score_cache",
                backend=self._store.backend,
                entries=len(self._memory),
                disk_hits=self._disk_hits,
                disk_puts=self._disk_puts,
                unpersistable=self._unpersistable,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreScoreCache({str(self._store.root)!r}, entries={len(self)})"


DiskResultCache = StoreResultCache  # the name e2ebench/layers.py patches
DiskScoreCache = StoreScoreCache  # the name e2ebench/layers.py patches
