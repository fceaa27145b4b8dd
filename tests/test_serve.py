"""Networked store service: protocol, server, client, RunConfig."""

from __future__ import annotations

import asyncio
import json
import pathlib
import socket
import struct
import threading
import time

import pytest

from repro.core.experiments import run_configuration
from repro.errors import (
    HarnessError,
    PersistError,
    RemoteStoreError,
    StoreError,
)
from repro.llm.types import ModelUsage
from repro.persist import RunStore
from repro.runtime import (
    InMemoryResultCache,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    ThreadExecutor,
    run,
)
from repro.runtime.units import Generation
from repro.serve import (
    RemoteRunStore,
    StoreServer,
    TornFrameError,
    encode_frame,
    open_store,
    parse_store_url,
    read_frame,
    shard_for,
    write_frame,
)
from executor_paths import EXECUTOR_PATHS, executor_path

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)


def make_generation(i: int = 0) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/gpt-4o",
        completion=f"serve payload #{i}\nwith ünïcode",
        usage=ModelUsage(input_tokens=10 + i, output_tokens=20 + i),
        elapsed_s=0.125 * i,
    )


FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


class ServerThread:
    """A StoreServer on its own event loop; TCP + unix, stoppable."""

    def __init__(
        self, root: pathlib.Path, *, shards: int = 2, port: int = 0
    ) -> None:
        self.root = root
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.port = 0
        self.unix_path = str(root.parent / f"{root.name}.sock")
        self._thread = threading.Thread(
            target=self._main, args=(shards, port), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not come up"
        if self._boot_error is not None:
            raise self._boot_error

    def _main(self, shards: int, port: int) -> None:
        async def body() -> None:
            try:
                server = StoreServer(self.root, shards=shards)
                _, self.port = await server.start_tcp("127.0.0.1", port)
                await server.start_unix(self.unix_path)
            except BaseException as exc:
                self._boot_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await server.aclose()

        asyncio.run(body())

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def tcp_url(self) -> str:
        return f"tcp://127.0.0.1:{self.port}"

    def client(self, **options) -> RemoteRunStore:
        options.setdefault("retry", FAST_RETRY)
        return open_store(self.tcp_url(), **options)

    def unix_client(self, **options) -> RemoteRunStore:
        options.setdefault("retry", FAST_RETRY)
        return open_store(f"unix://{self.unix_path}", **options)


class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        payload = {"op": "ping", "data": ["x"] * 10, "n": 3}
        write_frame(a, payload)
        assert read_frame(b) == payload
        a.close()
        assert read_frame(b) is None  # clean EOF between frames
        b.close()

    def test_torn_body_raises(self):
        a, b = socket.socketpair()
        wire = encode_frame({"op": "ping"})
        a.sendall(wire[: len(wire) - 3])  # cut mid-body
        a.close()
        with pytest.raises(TornFrameError):
            read_frame(b)
        b.close()

    def test_torn_header_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00")  # 2 of 4 length bytes
        a.close()
        with pytest.raises(TornFrameError):
            read_frame(b)
        b.close()

    def test_oversized_length_refused_before_allocation(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", (1 << 31)))
        with pytest.raises(RemoteStoreError, match="MAX_FRAME"):
            read_frame(b)
        a.close()
        b.close()

    def test_non_object_body_refused(self):
        a, b = socket.socketpair()
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(RemoteStoreError, match="JSON object"):
            read_frame(b)
        a.close()
        b.close()


class TestUrls:
    def test_parse_schemes(self):
        assert parse_store_url("runs/store") == ("local", "runs/store")
        assert parse_store_url("tcp://h:9045") == ("tcp", ("h", 9045))
        assert parse_store_url("repro+tcp://h:1") == ("tcp", ("h", 1))
        assert parse_store_url("unix:///tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_store_url("repro+unix:///tmp/s.sock") == (
            "unix",
            "/tmp/s.sock",
        )

    def test_malformed_urls_refused(self):
        with pytest.raises(StoreError, match="tcp://host:port"):
            parse_store_url("tcp://nohost")
        with pytest.raises(StoreError, match="unknown store URL scheme"):
            parse_store_url("ftp://h:1")

    def test_open_store_local_path(self, tmp_path):
        store = open_store(str(tmp_path / "local"))
        assert isinstance(store, RunStore)
        store.close()

    def test_open_store_rejects_client_options_on_local_path(self, tmp_path):
        with pytest.raises(StoreError, match="meaningless"):
            open_store(str(tmp_path / "local"), pool_size=2)


class TestSharding:
    def test_shard_for_is_stable_and_spread(self):
        keys = [f"{i:064x}" for i in range(512)]
        first = [shard_for(key, 4) for key in keys]
        assert first == [shard_for(key, 4) for key in keys]
        assert set(first) == {0, 1, 2, 3}  # all shards populated

    def test_shard_count_mismatch_refused(self, tmp_path, server):
        with pytest.raises(PersistError, match="--shards 2"):
            StoreServer(server.root, shards=5)

    def test_records_land_on_hashed_shards(self, server):
        gens = [make_generation(i) for i in range(32)]
        with server.client() as remote:
            remote.put_generations(gens)
        for gen in gens:
            shard = RunStore(
                server.root / f"shard-{shard_for(gen.key, 2):02d}"
            )
            assert shard.get_generation(gen.key) is not None
            shard.close()


class TestRemoteRoundTrip:
    def test_generations_roundtrip_and_cached_flag(self, server):
        gens = [make_generation(i) for i in range(20)]
        with server.client() as remote:
            remote.put_generations(gens)
            found = remote.get_generations([g.key for g in gens] + ["f" * 64])
        assert len(found) == 20
        assert found[gens[3].key].completion == gens[3].completion
        assert found[gens[3].key].usage == gens[3].usage
        cache = server.client().result_cache
        hit = cache.get_many([gens[0].key])[gens[0].key]
        assert hit.cached  # cache facade marks provenance

    def test_manifest_roundtrip_and_resume_linkage(self, server):
        plan = Plan("serve-test")
        from repro.core.experiments.configuration import configuration_task

        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
        with server.client() as remote:
            config = RunConfig(store=remote)
            first = run(plan, config=config)
            second = run(plan, config=config)
            listed = remote.manifests()
        assert first.manifest is not None
        assert second.manifest.resumed_from == first.manifest.run_id
        assert [m.run_id for m in listed] == [
            first.manifest.run_id,
            second.manifest.run_id,
        ]

    def test_server_errors_arrive_typed(self, server):
        with server.client() as remote:
            with pytest.raises(PersistError, match="unknown record kind"):
                remote.get_records("nope", ["k"])
            with pytest.raises(StoreError, match="unknown op"):
                remote.client.request({"op": "frobnicate"})

    def test_stats_sum_shards_and_root_is_url(self, server):
        with server.client() as remote:
            remote.put_generations([make_generation(i) for i in range(8)])
            stats = remote.stats()
            shards = remote.shard_stats()
        assert stats.root == server.tcp_url()
        assert stats.generations == 8
        assert stats.generations == sum(s.generations for s in shards)
        assert len(shards) == 2

    def test_unix_and_tcp_serve_identical_records(self, server):
        gens = [make_generation(i) for i in range(12)]
        with server.client() as tcp:
            tcp.put_generations(gens)
        with server.unix_client() as unix:
            found = unix.get_generations([g.key for g in gens])
            assert unix.ping()["shards"] == 2
        assert {k: g.completion for k, g in found.items()} == {
            g.key: g.completion for g in gens
        }


class TestFaultPaths:
    def test_torn_frame_mid_put_persists_nothing(self, server):
        with server.client() as remote:
            remote.put_generations([make_generation(0)])
            before = remote.stats().generations

        # a raw client dies mid-frame of a big put_records batch
        payloads = [
            {"kind": "gen", "key": f"{i:064x}", "model": "m", "completion": "c",
             "elapsed_s": 0.0, "input_tokens": 1, "output_tokens": 1}
            for i in range(100, 140)
        ]
        wire = encode_frame({"op": "put_records", "payloads": payloads})
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(wire[: len(wire) // 2])
        sock.close()  # torn mid-body
        time.sleep(0.1)

        with server.client() as remote:
            # nothing from the torn batch persisted; server still answers
            assert remote.stats().generations == before
            assert remote.ping()["server"] == "repro.serve/1"

    def test_client_reconnects_across_server_restart(self, tmp_path):
        srv = ServerThread(tmp_path / "served")
        gens = [make_generation(i) for i in range(10)]
        remote = srv.client()
        try:
            remote.put_generations(gens)
            first = remote.get_generations([g.key for g in gens[:5]])
            assert len(first) == 5

            port = srv.port
            srv.stop()  # connection in the pool goes stale
            srv = ServerThread(tmp_path / "served", port=port)

            # second batch: stale socket fails, RetryPolicy reconnects
            second = remote.get_generations([g.key for g in gens[5:]])
            assert len(second) == 5
            assert second[gens[7].key].completion == gens[7].completion
        finally:
            remote.close()
            srv.stop()

    def test_unreachable_server_raises_remote_store_error(self):
        url = "tcp://127.0.0.1:1"  # nothing listens on port 1
        remote = open_store(
            url, retry=RetryPolicy(max_attempts=2, base_delay=0.01)
        )
        with pytest.raises(RemoteStoreError, match="after 2 attempts"):
            remote.ping()
        remote.close()

    def test_remote_store_error_is_retryable_model_error(self):
        # the FaultPolicy mapping: network faults retry like provider faults
        assert RetryPolicy().is_retryable(RemoteStoreError("link down"))
        assert isinstance(RemoteStoreError("x"), StoreError)


class TestRemoteSweeps:
    def test_warm_remote_sweep_zero_generations_bit_identical(self, server):
        """Acceptance: remote warm pass = zero generations, same grid."""
        local = run_configuration(**SMALL)

        with server.client() as remote:
            config = RunConfig(store=remote)
            cold = run_configuration(**SMALL, config=config)
        with server.client() as remote:
            config = RunConfig(store=remote)
            warm = run_configuration(**SMALL, config=config)
            manifest = remote.latest_manifest()
        assert manifest.stats.generated == 0
        assert manifest.stats.scores_computed == 0
        for row in local.row_keys:
            for model in local.models:
                assert local.cell(row, model) == cold.cell(row, model)
                assert local.cell(row, model) == warm.cell(row, model)

    def test_two_tenants_share_one_server_bit_identical(self, server):
        grids: dict[str, object] = {}
        errors: list[BaseException] = []

        def tenant(name: str) -> None:
            try:
                with server.client() as remote:
                    grids[name] = run_configuration(
                        **SMALL,
                        config=RunConfig(
                            executor=ThreadExecutor(max_concurrency=4),
                            store=remote,
                        ),
                    )
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(name,))
            for name in ("tenant-a", "tenant-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        reference = run_configuration(**SMALL)
        for grid in grids.values():
            for row in reference.row_keys:
                for model in reference.models:
                    assert grid.cell(row, model) == reference.cell(row, model)


class TestRunConfig:
    def test_config_matches_default_across_executors(self):
        reference = run_configuration(**SMALL)
        for path in EXECUTOR_PATHS:
            executor = executor_path(path, max_concurrency=4)
            via_config = run_configuration(
                **SMALL,
                config=RunConfig(
                    executor=executor, cache=InMemoryResultCache()
                ),
            )
            for row in reference.row_keys:
                for model in reference.models:
                    assert via_config.cell(row, model) == reference.cell(row, model)

    def test_replace_and_describe(self):
        config = RunConfig(executor=SerialExecutor())
        cleared = config.replace(executor=None)
        assert cleared.executor is None and config.executor is not None
        assert "executor=" in config.describe()
        assert cleared.describe() == "RunConfig(defaults)"

    def test_from_url_local_and_remote(self, tmp_path, server):
        local = RunConfig.from_url(str(tmp_path / "store"))
        assert isinstance(local.store, RunStore)
        assert local.store_url == str(tmp_path / "store")
        local.store.close()

        remote = RunConfig.from_url(server.tcp_url())
        assert isinstance(remote.store, RemoteRunStore)
        remote.store.close()

        with pytest.raises(HarnessError, match="ambiguous"):
            RunConfig.from_url(server.tcp_url(), store=object())

        # a bad knob is refused before the store is opened: nothing is
        # left open and no store directory is created
        leaked = tmp_path / "never-opened"
        with pytest.raises(TypeError, match="warp_drive"):
            RunConfig.from_url(str(leaked), warp_drive=1)
        assert not leaked.exists()

    def test_knobs_are_exactly_the_seven_fields(self):
        from dataclasses import fields

        assert [spec.name for spec in fields(RunConfig)] == [
            "executor", "cache", "score_cache",
            "store", "faults", "resume_from", "store_url",
        ]

    def test_removed_scheduler_knob_is_rejected(self):
        """Units dispatch in plan order; no config surface reorders them."""
        with pytest.raises(TypeError, match="scheduler"):
            RunConfig(scheduler=object())
        with pytest.raises(TypeError, match="scheduler"):
            RunConfig().replace(scheduler=object())

    def test_evaluate_accepts_run_config(self):
        from repro.core.experiments.configuration import configuration_task
        from repro.core.task import evaluate

        task = configuration_task("adios2")
        via_config = evaluate(
            task, "sim/o3", epochs=1, run_config=RunConfig(executor=SerialExecutor())
        )
        default = evaluate(task, "sim/o3", epochs=1)
        assert via_config.samples[0].scores == default.samples[0].scores


class TestStatsSchema:
    def test_all_cache_backends_carry_markers(self, tmp_path, server):
        with RunStore(tmp_path / "store") as store:
            backends = [
                InMemoryResultCache(),
                store.result_cache,
                server.client().result_cache,
            ]
            for cache in backends:
                stats = cache.stats()
                assert stats["schema"] == "repro.stats/2"
                assert stats["kind"] == "result_cache"
                assert {"entries", "hits", "misses", "puts"} <= set(stats)

    def test_store_and_run_stats_round_trip(self, tmp_path):
        from repro.persist.store import StoreStats
        from repro.runtime import RunStats

        with RunStore(tmp_path / "store") as store:
            store.put_generations([make_generation(0)])
            payload = store.stats().as_dict()
        assert payload["schema"] == "repro.stats/2"
        assert payload["kind"] == "store"
        assert StoreStats.from_dict(payload) == store.stats()

        plan = Plan("schema")
        from repro.core.experiments.configuration import configuration_task

        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        stats = run(plan).stats
        round_tripped = RunStats.from_dict(stats.as_dict())
        assert round_tripped == stats

    def test_pre_schema_manifest_payload_rehydrates(self, tmp_path):
        """Manifests written before the unified schema still load."""
        with RunStore(tmp_path / "store") as store:
            outcome = run(small_plan_for(tmp_path), config=RunConfig(store=store))
            path = (
                store.root / "manifests" / f"{outcome.manifest.run_id}.json"
            )
            payload = json.loads(path.read_text())
            # strip the markers, as an old writer would have
            payload["stats"] = {
                k: v
                for k, v in payload["stats"].items()
                if k not in ("schema", "kind")
            }
            path.write_text(json.dumps(payload))
            old = store.manifest(outcome.manifest.run_id)
        assert old is not None
        assert old.stats == outcome.manifest.stats


def small_plan_for(tmp_path) -> Plan:
    from repro.core.experiments.configuration import configuration_task

    plan = Plan("serve-schema-test")
    plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
    return plan
