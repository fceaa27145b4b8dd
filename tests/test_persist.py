"""Durable run store: records, segments, locking, manifests, resume, CLI."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.core.scorers import CodeSimilarityScorer, Score
from repro.errors import PersistError, RecordCorruptError, StoreError
from repro.llm.types import GenerateConfig, ModelUsage
from repro.persist import (
    RunStore,
    decode_record,
    disk_score_key,
    encode_record,
    plan_fingerprint,
    stable_fingerprint_token,
)
from repro.persist.manifest import RunManifest
from repro.persist.records import SCORE_KIND
from repro.persist.segments import (
    list_segments,
    segment_name,
    segment_number,
    write_atomic,
)
from repro.runtime import (
    InMemoryResultCache,
    Plan,
    ResultCache,
    RunConfig,
    run,
)
from repro.runtime.runner import RunStats
from repro.runtime.units import Generation, generation_key

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)


def make_generation(i: int = 0, completion: str = "payload") -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/gpt-4o",
        completion=f"{completion} #{i}\nwith a second line and ünïcode",
        usage=ModelUsage(input_tokens=10 + i, output_tokens=20 + i),
        elapsed_s=0.125 * i,
    )


def small_plan() -> Plan:
    plan = Plan("persist-test")
    plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
    return plan


def store_for(backend: str, tmp_path: Path, request):
    """A fresh local store, or a client of the ``server`` fixture."""
    if backend == "disk":
        return RunStore(tmp_path / "store")
    store = request.getfixturevalue("server").client()
    request.addfinalizer(store.close)
    return store


def result_cache_for(backend: str, tmp_path: Path, request) -> ResultCache:
    if backend == "memory":
        return InMemoryResultCache()
    return store_for(backend, tmp_path, request).result_cache


class TestRecords:
    def test_roundtrip(self):
        from repro.persist.records import (
            generation_from_payload,
            generation_payload,
        )

        gen = make_generation(3)
        line = encode_record(generation_payload(gen))
        assert generation_from_payload(decode_record(line)) == gen

    def test_checksum_detects_bit_flip(self):
        from repro.persist.records import generation_payload

        line = bytearray(encode_record(generation_payload(make_generation())))
        line[80] ^= 0x01  # flip one payload bit
        with pytest.raises(RecordCorruptError):
            decode_record(bytes(line))

    def test_torn_tail_rejected(self):
        from repro.persist.records import generation_payload

        line = encode_record(generation_payload(make_generation()))
        with pytest.raises(RecordCorruptError):
            decode_record(line[:-10])

    def test_stable_fingerprint_tokens(self):
        from repro.utils.text import strip_markdown_chatter

        assert stable_fingerprint_token(("a", 1, 2.5, None, True)) is not None
        token = stable_fingerprint_token(strip_markdown_chatter)
        assert token == "repro.utils.text:strip_markdown_chatter"
        assert stable_fingerprint_token(lambda x: x) is None
        assert stable_fingerprint_token(("ok", lambda x: x)) is None
        assert stable_fingerprint_token(object()) is None

    def test_disk_score_key_for_default_scorer(self):
        scorer = CodeSimilarityScorer()
        key = ("a" * 64, "b" * 64, scorer.fingerprint)
        assert disk_score_key(key) is not None
        # same logical scorer in "another process" -> same durable key
        assert disk_score_key(("a" * 64, "b" * 64, CodeSimilarityScorer().fingerprint)) == disk_score_key(key)

    def test_disk_score_key_refuses_unstable_fingerprints(self):
        lam = lambda completion: completion  # noqa: E731
        scorer = CodeSimilarityScorer(extractor=lam)
        assert disk_score_key(("a" * 64, "b" * 64, scorer.fingerprint)) is None
        assert disk_score_key("not-a-tuple") is None


class TestSegments:
    def test_names_roundtrip(self):
        assert segment_number(segment_name(7)) == 7
        assert segment_number("segment-000007.seg") == 7
        assert segment_number("other.txt") is None
        assert segment_number("segment-xx.seg") is None


class TestRunStore:
    def test_put_get_roundtrip_and_reopen(self, tmp_path):
        store = RunStore(tmp_path / "store")
        gens = [make_generation(i) for i in range(5)]
        store.put_generations(gens)
        for gen in gens:
            assert store.get_generation(gen.key) == gen
        assert store.get_generation("f" * 64) is None
        store.close()

        reopened = RunStore(tmp_path / "store")
        for gen in gens:
            assert reopened.get_generation(gen.key) == gen

    def test_open_missing_without_create(self, tmp_path):
        with pytest.raises(StoreError):
            RunStore(tmp_path / "absent", create=False)
        with pytest.raises(PersistError):
            RunStore(tmp_path / "store", max_segment_bytes=0)

    def test_open_readonly_never_scaffolds_foreign_directories(self, tmp_path):
        """create=False on a non-store dir errors and leaves it untouched."""
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "unrelated.txt").write_text("hello")
        with pytest.raises(StoreError, match="no store at"):
            RunStore(plain, create=False)
        assert sorted(p.name for p in plain.iterdir()) == ["unrelated.txt"]

    def test_store_path_that_is_a_file_is_a_store_error(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("not a store")
        with pytest.raises(StoreError, match="not a directory"):
            RunStore(target)
        with pytest.raises(StoreError, match="not a directory"):
            RunStore(target, create=False)

    def test_concurrent_gc_does_not_cold_start_other_handles(self, tmp_path):
        """A handle whose index predates another process's gc stays warm."""
        a = RunStore(tmp_path / "store")
        b = RunStore(tmp_path / "store")
        gens = [make_generation(i) for i in range(5)]
        a.put_generations(gens)
        for gen in gens:  # b indexes the pre-compaction segment
            assert b.get_generation(gen.key) is not None
        a.gc()  # compacts into a new segment, deletes the one b indexed
        for gen in gens:
            assert b.get_generation(gen.key) == gen  # refresh, not a miss

    def test_segment_rotation(self, tmp_path):
        store = RunStore(tmp_path / "store", max_segment_bytes=512)
        for i in range(10):
            store.put_generation(make_generation(i))
        segments = list_segments(tmp_path / "store" / "segments")
        assert len(segments) > 1
        for i in range(10):
            assert store.get_generation(make_generation(i).key) is not None

    def test_two_instances_share_one_directory(self, tmp_path):
        """Two store handles (as two processes would hold) stay coherent."""
        a = RunStore(tmp_path / "store")
        b = RunStore(tmp_path / "store")
        gen = make_generation(1)
        a.put_generation(gen)
        assert b.get_generation(gen.key) == gen  # b discovers a's append
        gen2 = make_generation(2)
        b.put_generation(gen2)
        assert a.get_generation(gen2.key) == gen2

    def test_corrupt_record_skipped_with_warning(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_generations([make_generation(i) for i in range(3)])
        store.close()
        seg = list_segments(tmp_path / "store" / "segments")[0]
        raw = seg.read_bytes().splitlines(keepends=True)
        raw[1] = b"deadbeef " + raw[1].split(b" ", 1)[1]  # break one checksum
        seg.write_bytes(b"".join(raw))
        (tmp_path / "store" / "index.json").unlink()  # force a rescan

        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            fresh = RunStore(tmp_path / "store")
        assert fresh.get_generation(make_generation(0).key) is not None
        assert fresh.get_generation(make_generation(1).key) is None  # skipped
        assert fresh.get_generation(make_generation(2).key) is not None
        report = fresh.verify()
        assert not report.clean
        assert any("checksum mismatch" in problem for problem in report.problems)

    def test_torn_tail_skipped_and_healed_by_next_append(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_generation(make_generation(0))
        store.close()
        seg = list_segments(tmp_path / "store" / "segments")[0]
        with seg.open("ab") as handle:
            handle.write(b"abc123 {\"kind\": torn-partial-record")  # no newline
        (tmp_path / "store" / "index.json").unlink()

        with pytest.warns(RuntimeWarning, match="torn tail"):
            fresh = RunStore(tmp_path / "store")
        assert fresh.get_generation(make_generation(0).key) is not None
        # the next append re-sees the torn bytes (warned again), terminates
        # them, and lands its own record cleanly after the healed garbage
        with pytest.warns(RuntimeWarning, match="torn tail"):
            fresh.put_generation(make_generation(1))
        assert fresh.get_generation(make_generation(1).key) is not None
        with pytest.warns(RuntimeWarning):
            again = RunStore(tmp_path / "store")
        assert again.get_generation(make_generation(1).key) is not None

    def test_gc_drops_stale_corrupt_and_orphans(self, tmp_path):
        store = RunStore(tmp_path / "store")
        gen = make_generation(0)
        store.put_generation(gen)
        store.put_generation(gen)  # duplicate -> stale line
        score = Score(values={"bleu": 50.0}, answer="x")
        store.put_score("c" * 64, gen.key, score)
        store.put_score("d" * 64, "9" * 64, score)  # orphan: no such generation
        stats = store.gc()
        assert stats.stale_dropped == 1
        assert stats.orphan_scores_dropped == 1
        assert stats.records_after == 2  # gen + attached score
        assert stats.bytes_after < stats.bytes_before
        assert store.get_generation(gen.key) == gen
        assert store.get_score("c" * 64) == score
        assert store.get_score("d" * 64) is None
        report = store.verify()
        assert report.clean and report.stale == 0

    def test_gc_heals_corruption(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_generations([make_generation(i) for i in range(3)])
        store.close()
        seg = list_segments(tmp_path / "store" / "segments")[0]
        raw = seg.read_bytes().splitlines(keepends=True)
        raw[1] = b"deadbeef " + raw[1].split(b" ", 1)[1]
        seg.write_bytes(b"".join(raw))
        (tmp_path / "store" / "index.json").unlink()

        with pytest.warns(RuntimeWarning):
            fresh = RunStore(tmp_path / "store")
        gc_stats = fresh.gc()
        assert gc_stats.corrupt_dropped == 1
        assert fresh.verify().clean

    def test_stale_index_snapshot_is_discarded(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_generation(make_generation(0))
        store.close()
        snapshot = tmp_path / "store" / "index.json"
        payload = json.loads(snapshot.read_text())
        payload["scanned"] = {"segment-000099.seg": 10}  # vanished segment
        snapshot.write_text(json.dumps(payload))
        fresh = RunStore(tmp_path / "store")  # falls back to a full scan
        assert fresh.get_generation(make_generation(0).key) is not None

        snapshot.write_text("{not json")
        assert RunStore(tmp_path / "store").get_generation(
            make_generation(0).key
        ) is not None

    @pytest.mark.parametrize("offset", ["x", None, 1.5, -3])
    def test_snapshot_entry_with_bad_offset_is_rescanned(self, offset, tmp_path):
        gen = make_generation(0)
        with RunStore(tmp_path / "store") as store:
            store.put_generation(gen)
        snapshot = tmp_path / "store" / "index.json"
        payload = json.loads(snapshot.read_text())
        (entry,) = payload["entries"].values()
        entry[1] = offset
        snapshot.write_text(json.dumps(payload))
        assert RunStore(tmp_path / "store").get_generation(gen.key) == gen

    def test_mismatched_index_entry_never_poisons_the_read_lru(self, tmp_path):
        """An index entry pointing at the wrong record raises every time —
        the mismatched payload must not be served from the LRU later."""
        store = RunStore(tmp_path / "store")
        a, b = make_generation(1), make_generation(2)
        store.put_generations([a, b])
        # poison: point a's index entry at b's record
        from repro.persist.records import index_key

        store._index[index_key("gen", a.key)] = store._index[
            index_key("gen", b.key)
        ]
        with pytest.raises(PersistError, match="index points"):
            store.get_generation(a.key)
        with pytest.raises(PersistError, match="index points"):
            store.get_generation(a.key)  # second read: not an LRU hit

    def test_rejects_bad_tuning_params(self, tmp_path):
        with pytest.raises(PersistError):
            RunStore(tmp_path / "store", read_cache_entries=-1)
        with pytest.raises(PersistError):
            RunStore(tmp_path / "store", snapshot_every=0)

    def test_get_generations_batched(self, tmp_path):
        store = RunStore(tmp_path / "store", max_segment_bytes=512)
        gens = [make_generation(i) for i in range(8)]  # spans several segments
        store.put_generations(gens)
        store.close()
        fresh = RunStore(tmp_path / "store")
        found = fresh.get_generations(
            [gen.key for gen in gens] + ["f" * 64]  # one absent key
        )
        assert set(found) == {gen.key for gen in gens}
        for gen in gens:
            assert found[gen.key] == gen

    def test_read_lru_can_be_disabled(self, tmp_path):
        store = RunStore(tmp_path / "store", read_cache_entries=0)
        gen = make_generation(0)
        store.put_generation(gen)
        assert store.get_generation(gen.key) == gen
        assert store.get_generation(gen.key) == gen
        stats = store.stats()
        assert stats.read_lru_hits == 0  # every read went to disk
        assert stats.read_lru_misses == 2
        assert stats.bytes_read > 0

    def test_read_lru_bounded_and_counted(self, tmp_path):
        store = RunStore(tmp_path / "store", read_cache_entries=2)
        gens = [make_generation(i) for i in range(3)]
        store.put_generations(gens)
        for gen in gens:  # 3 distinct reads into a 2-entry LRU
            store.get_generation(gen.key)
        store.get_generation(gens[2].key)  # still resident -> hit
        store.get_generation(gens[0].key)  # evicted -> disk again
        stats = store.stats()
        assert stats.read_lru_hits == 1
        assert stats.read_lru_misses == 4

    def test_debounced_snapshot_written_during_appends(self, tmp_path):
        store = RunStore(tmp_path / "store", snapshot_every=4)
        snapshot = tmp_path / "store" / "index.json"
        store.put_generations([make_generation(i) for i in range(3)])
        assert not snapshot.exists()  # below the debounce threshold
        store.put_generations([make_generation(i) for i in range(3, 8)])
        assert snapshot.exists()  # threshold crossed inside the append
        payload = json.loads(snapshot.read_text())
        assert len(payload["entries"]) == 8
        # a fresh handle seeded by the snapshot sees every record
        fresh = RunStore(tmp_path / "store")
        for i in range(8):
            assert fresh.get_generation(make_generation(i).key) is not None

    def test_stats_counts(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put_generations([make_generation(i) for i in range(4)])
        store.put_score("c" * 64, make_generation(0).key, Score({"bleu": 1.0}, "a"))
        stats = store.stats()
        assert stats.generations == 4
        assert stats.scores == 1
        assert stats.segments == 1
        assert stats.segment_bytes > 0
        assert "4 generation(s)" in stats.describe()


class TestDiskResultCache:
    def test_satisfies_result_cache_protocol(self, tmp_path):
        cache = RunStore(tmp_path / "store").result_cache
        assert isinstance(cache, ResultCache)

    @pytest.mark.parametrize("backend", ["memory", "disk", "remote"])
    def test_introspection_parity(self, backend, tmp_path, request):
        """Every backend exposes the same len/stats surface."""
        cache = result_cache_for(backend, tmp_path, request)
        gen = make_generation(1)
        assert len(cache) == 0
        assert cache.get_many([gen.key]) == {}
        cache.put_many([gen])
        hit = cache.get_many([gen.key])[gen.key]
        assert hit.cached
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert isinstance(stats["backend"], str)
        # read-path counters: present on every backend, live on disk
        assert stats["read_lru_hits"] >= 0
        assert stats["read_lru_misses"] >= 0
        assert stats["bytes_read"] >= 0
        if backend != "memory":
            assert stats["backend"] == backend
            assert stats["read_lru_misses"] >= 1  # first read hit the disk
            assert stats["bytes_read"] > 0
            cache.get_many([gen.key])  # second read: served from the decoded LRU
            assert cache.stats()["read_lru_hits"] >= 1
        else:
            assert stats["read_lru_hits"] == 0
            assert stats["read_lru_misses"] == 0
            assert stats["bytes_read"] == 0

    @pytest.mark.parametrize("backend", ["memory", "disk", "remote"])
    def test_get_many_matches_single_gets(self, backend, tmp_path, request):
        cache = result_cache_for(backend, tmp_path, request)
        gens = [make_generation(i) for i in range(4)]
        cache.put_many(gens[:3])  # one key stays absent
        found = cache.get_many([gen.key for gen in gens])
        assert set(found) == {gen.key for gen in gens[:3]}
        for gen in gens[:3]:
            assert found[gen.key].cached
            assert found[gen.key].completion == gen.completion
        stats = cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_put_many_batches(self, tmp_path):
        cache = RunStore(tmp_path / "store").result_cache
        cache.put_many([make_generation(i) for i in range(3)])
        assert len(cache) == 3
        assert cache.stats()["puts"] == 3


class TestStoreScoreCache:
    @pytest.mark.parametrize("backend", ["disk", "remote"])
    def test_write_through_contract(self, backend, tmp_path, request):
        store = store_for(backend, tmp_path, request)
        key = ("a" * 64, "b" * 64, CodeSimilarityScorer().fingerprint)
        score = Score({"bleu": 1.0}, "a")
        writer = store.score_cache()
        writer.put(key, score)
        assert writer.stats()["disk_puts"] == 1
        reader = store.score_cache()  # empty memory front: reads the store
        assert reader.get(key) == score
        assert reader.get(key) == score  # served from memory this time
        assert reader.stats()["disk_hits"] == 1
        unstable = ("a" * 64, "b" * 64, lambda x: x)
        reader.put(unstable, score)
        assert reader.stats()["unpersistable"] == 1
        assert store.score_cache().get(unstable) is None  # never written
        assert reader.stats()["backend"] == backend


class TestScorePersistence:
    def test_scores_survive_process_boundary(self, tmp_path):
        plan = small_plan()
        with RunStore(tmp_path / "store") as store:
            config = RunConfig(store=store)
            run(plan, config=config)

        fresh = RunStore(tmp_path / "store")
        outcome = run(small_plan(), config=RunConfig(store=fresh))
        assert outcome.stats.generated == 0
        assert outcome.stats.scores_computed == 0
        assert outcome.stats.score_hits == outcome.stats.total_units

    def test_unstable_scorer_stays_in_memory(self, tmp_path):
        store = RunStore(tmp_path / "store")
        score_cache = store.score_cache()
        key = ("a" * 64, "b" * 64, lambda x: x)
        score_cache.put(key, Score({"bleu": 1.0}, "a"))
        assert score_cache.get(key) is not None  # memory layer
        assert store.stats().scores == 0  # nothing durable
        assert score_cache.stats()["unpersistable"] == 1


class TestManifests:
    def test_run_records_manifest(self, tmp_path):
        plan = small_plan()
        with RunStore(tmp_path / "store") as store:
            config = RunConfig(store=store)
            outcome = run(plan, config=config)
            manifest = outcome.manifest
            assert manifest is not None
            assert manifest.plan_name == "persist-test"
            assert manifest.plan_fingerprint == plan_fingerprint(plan)
            assert manifest.unit_keys == tuple(u.key for u in plan.units)
            assert manifest.executor == "SerialExecutor()"
            assert manifest.stats == outcome.stats
            assert manifest.resumed_from is None
            assert store.manifests() == [manifest]
            assert store.latest_manifest(manifest.plan_fingerprint) == manifest
            assert store.latest_manifest("0" * 64) is None

    def test_repeat_run_links_to_predecessor(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            first = run(small_plan(), config=RunConfig(store=store)).manifest
            second = run(small_plan(), config=RunConfig(store=store)).manifest
        assert second.resumed_from == first.run_id
        assert second.stats.generated == 0
        assert second.stats.cache_hits > 0
        assert "resumed_from" in second.describe()

    def test_no_store_no_manifest(self):
        assert run(small_plan()).manifest is None

    def test_read_and_scoring_stats_round_trip(self, tmp_path):
        """Read-LRU traffic survives the manifest file."""
        with RunStore(tmp_path / "store") as store:
            run(small_plan(), config=RunConfig(store=store))
        with RunStore(tmp_path / "store") as store:
            warm = run(small_plan(), config=RunConfig(store=store))
        # the warm pass read its generations back from segments
        assert warm.stats.read_lru_misses > 0
        assert warm.stats.bytes_read > 0
        reloaded = RunStore(tmp_path / "store").manifests()[-1]
        assert reloaded.stats == warm.stats

        # payload round trip preserves every new field verbatim
        manifest = RunManifest(
            run_id="run-test",
            plan_name="p",
            plan_fingerprint="f" * 64,
            unit_keys=("k",),
            executor="SerialExecutor()",
            cache="InMemoryResultCache()",
            stats=RunStats(
                total_units=1, generated=1, cache_hits=0, deduplicated=0,
                read_lru_hits=7, read_lru_misses=2, bytes_read=4096,
            ),
            started_unix=0.0,
            wall_seconds=1.0,
        )
        back = RunManifest.from_payload(
            json.loads(json.dumps(manifest.to_payload()))
        )
        assert back == manifest
        assert back.stats.read_lru_hits == 7
        assert back.stats.bytes_read == 4096

    def test_old_manifest_without_read_stats_still_loads(self, tmp_path):
        """Old manifests without the read stat keys default them to zero."""
        with RunStore(tmp_path / "store") as store:
            payload = run(small_plan(), config=RunConfig(store=store)).manifest.to_payload()
        for legacy_missing in ("read_lru_hits", "read_lru_misses", "bytes_read"):
            payload["stats"].pop(legacy_missing)
        old = RunManifest.from_payload(payload)
        assert old.stats.read_lru_hits == 0
        assert old.stats.bytes_read == 0

    @pytest.mark.parametrize("name", ["manifest_v1.json", "manifest_v2.json"])
    def test_manifest_with_retired_stat_keys_still_loads(self, name):
        """Stat keys RunStats no longer has (the fixtures still carry the
        retired scoring-worker count) load and are dropped, at any value."""
        from dataclasses import fields

        fixture = Path(__file__).parent / "fixtures" / name
        payload = json.loads(fixture.read_text())
        # the fixtures also predate the scheduler's removal: the key is ignored
        assert payload["scheduler"] == "PlanOrderScheduler()"
        current = {spec.name for spec in fields(RunStats)} | {"schema", "kind"}
        retired = set(payload["stats"]) - current
        assert retired  # the fixture predates the deletion
        for key in retired:
            payload["stats"][key] = 3
        manifest = RunManifest.from_payload(payload)
        assert manifest.stats.total_units == 1
        assert retired.isdisjoint(manifest.stats.as_dict())

    def test_recorded_manifest_has_no_scheduler_key(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            outcome = run(small_plan(), config=RunConfig(store=store))
        written = tmp_path / "store" / "manifests" / f"{outcome.manifest.run_id}.json"
        payload = json.loads(written.read_text())
        assert "scheduler" not in payload
        assert payload["executor"] == "SerialExecutor()"

    def test_explicit_cache_still_records_manifest(self, tmp_path):
        with RunStore(tmp_path / "store") as store:
            outcome = run(small_plan(), config=RunConfig(cache=InMemoryResultCache(), store=store))
        assert outcome.manifest is not None
        assert outcome.manifest.cache.startswith("InMemoryResultCache")
        # the store cache was bypassed, so no generations were persisted
        assert store.stats().generations == 0


def bare_manifest(run_id: str, started: float, fingerprint: str) -> RunManifest:
    """A minimal valid manifest (no plan behind it)."""
    return RunManifest(
        run_id=run_id,
        plan_name="p",
        plan_fingerprint=fingerprint,
        unit_keys=(),
        executor="SerialExecutor()",
        cache="InMemoryResultCache()",
        stats=RunStats(total_units=0, generated=0, cache_hits=0, deduplicated=0),
        started_unix=started,
        wall_seconds=0.0,
    )


#: (field, value) pairs that, left unchecked, make manifests() and
#: latest_manifest() raise TypeError while sorting, or load a manifest
#: no listing can print
WRONG_TYPED = [
    ("started_unix", "x"),
    ("started_unix", None),
    ("started_unix", [1]),
    ("started_unix", True),
    ("wall_seconds", "1.0"),
    ("wall_seconds", False),
    ("run_id", 7),
    ("plan_name", None),
    ("plan_fingerprint", 12),
]


class TestManifestKeyFields:
    @pytest.mark.parametrize(("field", "value"), WRONG_TYPED)
    def test_from_payload_refuses_wrong_typed_key_fields(self, field, value):
        payload = bare_manifest("run-bad", 5.0, "f" * 64).to_payload()
        payload[field] = value
        with pytest.raises(PersistError, match=f"malformed run manifest: {field}"):
            RunManifest.from_payload(payload)

    def test_int_timestamps_still_load(self):
        payload = bare_manifest("run-int", 5.0, "f" * 64).to_payload()
        payload["started_unix"] = 5
        payload["wall_seconds"] = 0
        assert RunManifest.from_payload(payload).started_unix == 5

    @pytest.mark.parametrize(("field", "value"), WRONG_TYPED)
    def test_wrong_typed_manifest_is_skipped_and_reported(self, field, value, tmp_path):
        with RunStore(tmp_path / "store") as store:
            good = run(small_plan(), config=RunConfig(store=store)).manifest
            payload = good.to_payload()
            payload["run_id"] = "run-bad"
            payload[field] = value
            bad = tmp_path / "store" / "manifests" / "run-bad.json"
            bad.write_text(json.dumps(payload))
            assert store.manifests() == [good]
            assert store.latest_manifest() == good
            assert store.latest_manifest(good.plan_fingerprint) == good
            # later runs against the store still record and link
            again = run(small_plan(), config=RunConfig(store=store)).manifest
            assert again.resumed_from == good.run_id
            report = store.verify()
        assert not report.clean
        assert any("run-bad.json" in problem for problem in report.problems)

    @pytest.mark.parametrize(("field", "value"), [("started_unix", "x"), ("run_id", 7)])
    def test_cli_lists_around_it_and_verify_flags_it(self, field, value, tmp_path):
        with RunStore(tmp_path / "store") as store:
            payload = run(small_plan(), config=RunConfig(store=store)).manifest.to_payload()
        payload[field] = value
        (tmp_path / "store" / "manifests" / "run-bad.json").write_text(json.dumps(payload))
        listing = run_cli(["ls-runs", str(tmp_path / "store")])
        assert listing.returncode == 0, listing.stderr
        assert "plan='persist-test'" in listing.stdout
        audit = run_cli(["verify", str(tmp_path / "store")])
        assert audit.returncode == 1
        assert "run-bad.json" in audit.stdout

    @pytest.mark.parametrize(("field", "value"), WRONG_TYPED[:3])
    def test_server_refuses_to_write_it(self, field, value, server):
        with server.client() as store:
            payload = bare_manifest("run-bad", 5.0, "f" * 64).to_payload()
            payload[field] = value
            with pytest.raises(PersistError, match="malformed run manifest"):
                store.client.request({"op": "put_manifest", "manifest": payload})
            assert store.manifests() == []


FINGERPRINTS = ("a" * 64, "b" * 64)
MALFORMED = (
    b"{not json",
    b"\xff\xfe",
    b"[1, 2]",
    json.dumps({"run_id": "run-x"}).encode(),
    json.dumps(
        {**bare_manifest("run-x", 1.0, "a" * 64).to_payload(), "started_unix": "x"}
    ).encode(),
)
_STARTS = st.sampled_from([0.0, 1.0, 1.5, 2])  # few values: ties happen
_RUN_IDS = st.sampled_from([f"run-{i}" for i in range(4)])
_PUT = st.tuples(_RUN_IDS, _STARTS, st.sampled_from(FINGERPRINTS))
INDEX_OPS = st.one_of(
    st.tuples(st.just("put"), _PUT),
    st.tuples(st.just("put-second-handle"), _PUT),
    st.tuples(st.just("rewrite"), st.tuples(st.integers(0, 9), _STARTS)),
    st.tuples(st.just("delete-latest"), st.sampled_from((None, *FINGERPRINTS))),
    st.tuples(
        st.just("malformed"),
        st.tuples(st.sampled_from(["run-0", "run-x"]), st.sampled_from(MALFORMED)),
    ),
    # same (started_unix, run_id) under another file name, other content
    st.tuples(st.just("alias"), st.integers(0, 9)),
)


def _parsed(path: Path) -> RunManifest | None:
    try:
        return RunManifest.from_payload(json.loads(path.read_text()))
    except (ValueError, PersistError):
        return None


class TestManifestIndex:
    """``latest_manifest`` keeps an index; it must answer as the full scan."""

    @staticmethod
    def _check(store) -> None:
        listed = store.manifests()
        for fingerprint in (None, *FINGERPRINTS):
            matching = [
                m for m in listed
                if fingerprint is None or m.plan_fingerprint == fingerprint
            ]
            assert store.latest_manifest(fingerprint) == (
                matching[-1] if matching else None
            )

    @staticmethod
    def _apply(op, arg, store, second: RunStore, manifests_dir: Path) -> None:
        if op in ("put", "put-second-handle"):
            run_id, started, fingerprint = arg
            target = store if op == "put" else second
            target.put_manifest(bare_manifest(run_id, started, fingerprint))
            return
        listed = store.manifests()
        if op == "rewrite" and listed:
            index, started = arg
            manifest = listed[index % len(listed)]
            store.put_manifest(dataclasses.replace(manifest, started_unix=started))
        elif op == "delete-latest":
            latest = store.latest_manifest(arg)
            if latest is not None:
                # the winning file: ties go to the later file name
                names = sorted(
                    path.name for path in manifests_dir.glob("*.json")
                    if _parsed(path) == latest
                )
                (manifests_dir / names[-1]).unlink()
        elif op == "malformed":
            name, blob = arg
            write_atomic(manifests_dir / f"{name}.json", blob, fsync=False)
        elif op == "alias" and listed:
            manifest = listed[arg % len(listed)]
            twin = dataclasses.replace(manifest, plan_name=f"alias-{arg}")
            write_atomic(
                manifests_dir / f"{manifest.run_id}-{arg}.json",
                json.dumps(twin.to_payload()).encode(),
                fsync=False,
            )

    @pytest.mark.parametrize("backend", ["disk", "remote"])
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(INDEX_OPS, min_size=1, max_size=12))
    def test_latest_equals_the_full_scan_after_every_step(self, backend, ops):
        from test_serve import ServerThread

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            if backend == "disk":
                srv, store = None, RunStore(root / "store")
                shard = root / "store"
            else:
                srv = ServerThread(root / "served")
                store = srv.client()
                shard = root / "served" / "shard-00"
            second = RunStore(shard)
            try:
                self._check(store)
                for op, arg in ops:
                    self._apply(op, arg, store, second, shard / "manifests")
                    self._check(store)
            finally:
                second.close()
                store.close()
                if srv is not None:
                    srv.stop()

    def test_a_call_parses_only_new_files_and_the_winner(self, tmp_path, monkeypatch):
        parsed: list[str] = []
        original = RunManifest.from_payload

        def counting(payload):
            parsed.append(payload["run_id"])
            return original(payload)

        monkeypatch.setattr(RunManifest, "from_payload", staticmethod(counting))
        store = RunStore(tmp_path / "store")
        for i in range(5):
            store.put_manifest(bare_manifest(f"run-{i}", float(i), "a" * 64))
        assert store.latest_manifest().run_id == "run-4"
        assert len(parsed) == 5 + 1  # a fresh handle indexes every file once
        parsed.clear()
        assert store.latest_manifest("a" * 64).run_id == "run-4"
        assert parsed == ["run-4"]  # nothing new: only the winner
        parsed.clear()
        store.put_manifest(bare_manifest("run-5", 0.5, "b" * 64))
        assert store.latest_manifest().run_id == "run-4"
        assert sorted(parsed) == ["run-4", "run-5"]
        parsed.clear()
        (tmp_path / "store" / "manifests" / "run-4.json").unlink()
        assert store.latest_manifest().run_id == "run-3"
        assert parsed == ["run-3"]

    def test_winner_rewritten_after_the_scan_is_re_picked(self, tmp_path, monkeypatch):
        """A winner that changes between the scan and its read is rescanned."""
        store = RunStore(tmp_path / "store")
        for i in range(3):
            store.put_manifest(bare_manifest(f"run-{i}", float(i), "a" * 64))
        assert store.latest_manifest().run_id == "run-2"
        original = RunStore._read_manifest
        rewritten = []

        def racing(path):
            if path.name == "run-2.json" and not rewritten:
                rewritten.append(path.name)
                store.put_manifest(bare_manifest("run-2", -1.0, "a" * 64))
            return original(path)

        monkeypatch.setattr(RunStore, "_read_manifest", staticmethod(racing))
        assert store.latest_manifest().run_id == "run-1"
        assert rewritten == ["run-2.json"]


class TestScorePrefetch:
    """Warm runs read their durable scores in one batch, not per key."""

    @staticmethod
    def _count_score_reads(store) -> list[list[str]]:
        reads: list[list[str]] = []
        original = store.get_records

        def counting(kind, keys):
            keys = list(keys)
            if kind == SCORE_KIND:
                reads.append(keys)
            return original(kind, keys)

        store.get_records = counting
        return reads

    @staticmethod
    def _count_gets(score_cache) -> list:
        gets: list = []
        original = score_cache.get

        def counting(key):
            gets.append(key)
            return original(key)

        score_cache.get = counting
        return gets

    @pytest.mark.parametrize("backend", ["disk", "remote"])
    def test_warm_run_makes_one_batched_score_read(self, backend, tmp_path, request):
        store = store_for(backend, tmp_path, request)
        cold_scores = store.score_cache()
        cold_gets = self._count_gets(cold_scores)
        cold = run(small_plan(), config=RunConfig(store=store, score_cache=cold_scores))
        assert cold.stats.scores_computed == cold.stats.total_units

        reads = self._count_score_reads(store)
        frames: list[dict] = []
        if backend == "remote":
            original = store.client.request_many

            def counting_frames(requests):
                frames.extend(requests)
                return original(requests)

            store.client.request_many = counting_frames
        scores = store.score_cache()
        gets = self._count_gets(scores)
        warm = run(small_plan(), config=RunConfig(store=store, score_cache=scores))
        assert warm.stats.generated == 0
        assert warm.stats.scores_computed == 0
        assert len(reads) == 1  # one batched read for the whole run
        assert sorted(reads[0]) == store.keys(SCORE_KIND)
        # the per-key accounting is what it was before the batch read
        assert len(gets) == len(cold_gets) == warm.stats.total_units
        assert scores.stats()["disk_hits"] == len(gets)
        assert scores.stats()["disk_puts"] == 0
        assert [warm[u.uid].score for u in small_plan().units] == [
            cold[u.uid].score for u in small_plan().units
        ]
        if backend == "remote":
            score_frames = [
                f for f in frames
                if f["op"] == "get_records" and f["kind"] == SCORE_KIND
            ]
            assert len(score_frames) == 1

    @pytest.mark.parametrize("backend", ["disk", "remote"])
    def test_cold_run_asks_the_store_once(self, backend, tmp_path, request):
        store = store_for(backend, tmp_path, request)
        reads = self._count_score_reads(store)
        cold = run(small_plan(), config=RunConfig(store=store))
        assert cold.stats.scores_computed == cold.stats.total_units
        assert len(reads) == 1  # the misses are not re-read one by one

    def test_memory_only_and_memory_resident_keys_never_reach_the_store(
        self, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        reads = self._count_score_reads(store)
        fingerprint = CodeSimilarityScorer().fingerprint
        resident = ("a" * 64, "b" * 64, fingerprint)
        durable = ("c" * 64, "d" * 64, fingerprint)
        unstable = ("e" * 64, "f" * 64, lambda x: x)
        writer = store.score_cache()
        writer.put(durable, Score({"bleu": 2.0}, "d"))
        scores = store.score_cache()
        scores.put(resident, Score({"bleu": 1.0}, "a"))
        scores.prefetch([unstable])
        scores.prefetch([resident])
        assert reads == []  # nothing to ask the store for
        scores.prefetch([resident, unstable, durable])
        assert reads == [[disk_score_key(durable)]]
        assert scores.get(durable) == Score({"bleu": 2.0}, "d")
        assert scores.get(resident) == Score({"bleu": 1.0}, "a")
        assert scores.get(unstable) is None
        assert len(reads) == 1  # every get answered from the batch
        assert scores.stats()["disk_hits"] == 1

    def test_plan_larger_than_the_memo_still_scores_correctly(self, tmp_path):
        plan = Plan("wide")
        for system in ("adios2", "wilkins", "henson"):
            plan.add_eval(configuration_task(system), "sim/o3", epochs=2)
        with RunStore(tmp_path / "store") as store:
            cold = run(plan, config=RunConfig(store=store))
            small = store.score_cache(maxsize=2)
            reads = self._count_score_reads(store)
            warm = run(plan, config=RunConfig(store=store, score_cache=small))
        assert len(plan.units) > 2
        assert warm.stats.scores_computed == 0
        assert warm.stats.score_hits == len(plan.units)
        assert small.stats()["disk_hits"] == len(plan.units)
        assert len(reads[0]) == 2  # the batch is capped at the memo's size
        assert {u.uid: warm[u.uid].score for u in plan.units} == {
            u.uid: cold[u.uid].score for u in plan.units
        }


class TestConcurrentIndexAndPrefetch:
    """More threads than cores on one handle; a lost update breaks a count."""

    @staticmethod
    def _run_threads(targets) -> None:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=t) for t in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_each_prefetched_key_is_one_disk_hit(self, tmp_path):
        store = RunStore(tmp_path / "store")
        fingerprint = CodeSimilarityScorer().fingerprint
        keys = [(f"{i:064x}", "b" * 64, fingerprint) for i in range(200)]
        writer = store.score_cache()
        for i, key in enumerate(keys):
            writer.put(key, Score({"bleu": float(i)}, "a"))
        scores = store.score_cache()
        scores.prefetch(keys)
        errors: list[BaseException] = []

        def reader(offset: int) -> None:
            try:
                for i in range(len(keys)):
                    j = (i + offset) % len(keys)
                    assert scores.get(keys[j]) == Score({"bleu": float(j)}, "a")
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        self._run_threads([lambda o=o: reader(o * 25) for o in range(8)])
        assert errors == []
        assert scores.stats()["disk_hits"] == len(keys)

    def test_latest_stays_the_full_scan_under_concurrent_writers(self, tmp_path):
        store = RunStore(tmp_path / "store")
        second = RunStore(tmp_path / "store")
        written: set[str] = set()
        seen: list[str] = []
        errors: list[BaseException] = []

        def writer(handle: RunStore, start: int) -> None:
            try:
                for i in range(start, start + 40):
                    manifest = bare_manifest(f"run-{i:03d}", float(i), FINGERPRINTS[i % 2])
                    written.add(manifest.run_id)
                    handle.put_manifest(manifest)
            except BaseException as exc:
                errors.append(exc)

        def reader() -> None:
            try:
                for _ in range(40):
                    latest = store.latest_manifest(FINGERPRINTS[0])
                    if latest is not None:
                        seen.append(latest.run_id)
            except BaseException as exc:
                errors.append(exc)

        self._run_threads(
            [lambda: writer(store, 0), lambda: writer(second, 40)]
            + [reader] * 6
        )
        assert errors == []
        assert set(seen) <= written
        TestManifestIndex._check(store)
        assert store.latest_manifest().run_id == "run-079"


def surrogate_plan() -> Plan:
    """One adios2 configuration unit whose target ends in a lone surrogate."""
    task = configuration_task("adios2")
    sample = task.dataset[0]
    task = dataclasses.replace(
        task, dataset=[dataclasses.replace(sample, target=sample.target + "\udcff")]
    )
    plan = Plan("surrogate")
    plan.add_eval(task, "sim/o3", epochs=1)
    return plan


class TestLoneSurrogates:
    def test_known_keys_are_unchanged(self, tmp_path):
        """Valid text hashes the same bytes as before: stores stay warm."""
        assert generation_key(
            "Write an ADIOS2 XML configuration.", "sim/o3", GenerateConfig(seed=7)
        ) == "4cf3360d9833501a6d5da0daa58f29c8b068cf0d91a17d45a8822b1d99e51678"
        with RunStore(tmp_path / "store") as store:
            run(small_plan(), config=RunConfig(store=store))
            assert store.keys("gen")[0] == (
                "96a332c68824b21c846882f95e7352996e2fdc1a63ba6961d8c041c7b9712c01"
            )
            assert store.keys(SCORE_KIND)[0] == (
                "919491dfb6866bc53d5ca141d51d9e959db3447617a145459c343b0902aea662"
            )

    def test_lone_surrogate_prompt_has_a_key(self):
        key = generation_key("prompt \udcff", "sim/o3", GenerateConfig())
        assert key != generation_key("prompt ", "sim/o3", GenerateConfig())

    @pytest.mark.parametrize("backend", ["disk", "remote"])
    def test_lone_surrogate_target_runs_cold_then_warm(self, backend, tmp_path, request):
        store = store_for(backend, tmp_path, request)
        cold = run(surrogate_plan(), config=RunConfig(store=store))
        assert cold.stats.generated == 1
        assert cold.stats.scores_computed == 1
        warm = run(surrogate_plan(), config=RunConfig(store=store))
        assert warm.stats.generated == 0
        assert warm.stats.scores_computed == 0
        assert warm.stats.score_hits == 1
        uid = surrogate_plan().units[0].uid
        assert warm[uid].score == cold[uid].score


class TestResumableSweep:
    def test_table1_sweep_resumes_bit_identical(self, tmp_path):
        """Acceptance: warm second pass = zero generations, identical grid."""
        cold_serial = run_configuration(**SMALL)

        with RunStore(tmp_path / "store") as store:
            config = RunConfig(store=store)
            run_configuration(**SMALL, config=config)
        with RunStore(tmp_path / "store") as store:
            config = RunConfig(store=store)
            warm = run_configuration(**SMALL, config=config)
            manifest = store.latest_manifest()
        assert manifest.stats.generated == 0
        assert manifest.stats.cache_hits == manifest.stats.total_units - manifest.stats.deduplicated
        for row in cold_serial.row_keys:
            for model in cold_serial.models:
                assert cold_serial.cell(row, model) == warm.cell(row, model)

    def test_interrupted_sweep_regenerates_only_missing_units(self, tmp_path):
        """A partial store (interrupted run) is topped up, not redone."""
        with RunStore(tmp_path / "store") as store:
            run_configuration(
                models=["o3"],
                systems=["adios2"],
                epochs=2,
                config=RunConfig(store=store),
            )
            partial = store.stats().generations
        with RunStore(tmp_path / "store") as store:
            config = RunConfig(store=store)
            run_configuration(**SMALL, config=config)
            manifest = store.latest_manifest()
        assert partial > 0
        assert manifest.stats.cache_hits == partial
        assert manifest.stats.generated == manifest.stats.total_units - partial - manifest.stats.deduplicated


class TestPreadReads:
    """Positioned reads on persistent descriptors: appends, GC lifetime."""

    def test_read_sees_records_appended_after_the_descriptor_opened(
        self, tmp_path
    ):
        store = RunStore(tmp_path / "store", read_cache_entries=0)
        first = make_generation(0)
        store.put_generation(first)
        assert store.get_generation(first.key) == first  # opens the descriptor
        later = make_generation(1)
        store.put_generation(later)  # same segment, past the first read
        assert store.get_generation(later.key) == later
        assert store.get_generation(first.key) == first

    def test_descriptor_opened_before_gc_still_reads_the_old_inode(
        self, tmp_path
    ):
        from repro.persist.records import index_key

        store = RunStore(tmp_path / "store", read_cache_entries=0)
        gen = make_generation(0)
        store.put_generation(gen)
        assert store.get_generation(gen.key) == gen  # opens the descriptor
        entry = store._index[index_key("gen", gen.key)]
        RunStore(tmp_path / "store").gc()  # another handle compacts
        assert not (tmp_path / "store" / "segments" / entry[0]).exists()
        with store._mu:  # the unlinked inode stays readable
            assert decode_record(store._pread_locked(entry))["key"] == gen.key
        assert store.get_generation(gen.key) == gen

    def test_gc_compaction_invalidates_and_rereads_cleanly(self, tmp_path):
        store = RunStore(
            tmp_path / "store", max_segment_bytes=512, read_cache_entries=0
        )
        gens = [make_generation(i) for i in range(10)]
        store.put_generations(gens)
        for gen in gens:  # open descriptors over several segments
            assert store.get_generation(gen.key) == gen
        store.gc()
        for gen in gens:  # fresh descriptors over the compacted segment
            assert store.get_generation(gen.key) == gen
        assert store.verify().clean


def _rotation_writer(store_path: str, batches: int, batch_size: int) -> None:
    """Append past the rotation threshold, compacting once midway (child)."""
    from repro.persist import RunStore

    store = RunStore(store_path, max_segment_bytes=16 << 10)
    for batch in range(batches):
        store.put_generations(
            [
                make_generation(10_000 + batch * batch_size + i)
                for i in range(batch_size)
            ]
        )
        if batch == batches // 2:
            store.gc()  # replaces every segment the reader has open
    store.close()


class TestConcurrentReadersDuringRotation:
    def test_open_handles_never_see_torn_or_stale_records(self, tmp_path):
        """A reader holding offset-indexed descriptors while another process
        appends past the rotation threshold (and compacts midway) always
        reads back exactly the records that were written."""
        store_path = str(tmp_path / "store")
        base = [make_generation(i) for i in range(20)]
        reader = RunStore(store_path, max_segment_bytes=16 << 10)
        reader.put_generations(base)
        for gen in base:  # warm the offset index and the persistent fds
            assert reader.get_generation(gen.key) == gen
        # the reader holds live segment descriptors across what follows
        assert reader._fds

        batches, batch_size = 24, 16
        ctx = multiprocessing.get_context("spawn")
        writer = ctx.Process(
            target=_rotation_writer, args=(store_path, batches, batch_size)
        )
        writer.start()
        try:
            while writer.is_alive():
                for gen in base:
                    got = reader.get_generation(gen.key)
                    assert got == gen, "reader saw a torn or stale record"
        finally:
            writer.join(timeout=120)
        assert writer.exitcode == 0

        # everything the writer appended is readable through the same handle
        reader.refresh()
        for batch in range(batches):
            for i in range(batch_size):
                expected = make_generation(10_000 + batch * batch_size + i)
                assert reader.get_generation(expected.key) == expected
        assert reader.verify().clean


def _worker_sweep(store_path: str) -> None:
    """Run the small Table-1 sweep against a shared store (child process)."""
    from repro.core.experiments import run_configuration
    from repro.persist import RunStore

    with RunStore(store_path) as store:
        run_configuration(
            models=["o3", "llama-3.3-70b"],
            systems=["adios2", "wilkins"],
            epochs=2,
            config=RunConfig(store=store),
        )


class TestCrossProcessSharing:
    def test_two_processes_one_store(self, tmp_path):
        """Acceptance: concurrent workers share one store without corruption,
        and a subsequent pass performs zero generations."""
        store_path = str(tmp_path / "store")
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_worker_sweep, args=(store_path,)) for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        with RunStore(store_path) as store:
            report = store.verify()
            assert report.clean, report.describe()
            assert report.generations > 0
            assert len(store.manifests()) == 2
            # second pass over the shared warm store: zero model calls
            config = RunConfig(store=store)
            warm = run_configuration(**SMALL, config=config)
            assert store.latest_manifest().stats.generated == 0
        cold = run_configuration(**SMALL)
        for row in cold.row_keys:
            for model in cold.models:
                assert cold.cell(row, model) == warm.cell(row, model)


def run_cli(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(src)
    return subprocess.run(
        [sys.executable, "-m", "repro.persist", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestCLI:
    @pytest.fixture()
    def populated_store(self, tmp_path) -> str:
        with RunStore(tmp_path / "store") as store:
            run(small_plan(), config=RunConfig(store=store))
        return str(tmp_path / "store")

    def test_stats(self, populated_store):
        proc = run_cli(["stats", populated_store])
        assert proc.returncode == 0
        assert "generation(s)" in proc.stdout

    def test_verify_clean(self, populated_store):
        proc = run_cli(["verify", populated_store])
        assert proc.returncode == 0
        assert "clean" in proc.stdout

    def test_verify_unclean_exits_nonzero(self, populated_store):
        seg = list_segments(Path(populated_store) / "segments")[0]
        raw = seg.read_bytes().splitlines(keepends=True)
        raw[0] = b"deadbeef " + raw[0].split(b" ", 1)[1]
        seg.write_bytes(b"".join(raw))
        proc = run_cli(["verify", populated_store])
        assert proc.returncode == 1
        assert "checksum mismatch" in proc.stdout

    def test_gc_then_verify(self, populated_store):
        proc = run_cli(["gc", populated_store])
        assert proc.returncode == 0
        assert "gc:" in proc.stdout
        assert run_cli(["verify", populated_store]).returncode == 0

    def test_ls_runs(self, populated_store):
        proc = run_cli(["ls-runs", populated_store])
        assert proc.returncode == 0
        assert "plan='persist-test'" in proc.stdout
        assert "generated=" in proc.stdout

    def test_ls_runs_empty_store(self, tmp_path):
        RunStore(tmp_path / "store").close()
        proc = run_cli(["ls-runs", str(tmp_path / "store")])
        assert proc.returncode == 0
        assert "no runs recorded" in proc.stdout

    def test_missing_store_is_a_clean_error(self, tmp_path):
        proc = run_cli(["stats", str(tmp_path / "nowhere")])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_command_rejected(self, tmp_path):
        proc = run_cli(["defrag", str(tmp_path)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
