"""The resilience layer: replication, failover, breakers, spill, drain.

Boots real servers (in-process, on their own threads, for speed; genuine
``python -m repro.serve`` subprocesses where only ``kill -9`` proves
the point) and drives the :class:`ReplicatedRunStore` through replica
death, slow replicas, overload, total outage and recovery — asserting
the sweeps riding on top stay bit-identical throughout.
"""

from __future__ import annotations

import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.experiments import run_configuration
from repro.errors import (
    PersistError,
    RemoteStoreError,
    ServerOverloadedError,
    StoreError,
)
from repro.llm.types import ModelUsage
from repro.runtime import RetryPolicy, RunConfig
from repro.runtime.units import Generation
from repro.serve import (
    ReplicatedRunStore,
    ReplicatedStoreClient,
    StoreServer,
    open_store,
    parse_store_url,
)
from repro.serve.cli import main as serve_main
from repro.serve.sync import sync
from repro.testing import ChaosStoreServer, InProcessServer, ServerProcess

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)

#: breaker knobs for tests that exercise trip-and-rejoin without sleeping long
FAST_BREAKER = dict(min_samples=2, failure_threshold=0.5, open_for_s=0.2)


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def make_generation(i: int = 0) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/gpt-4o",
        completion=f"replica payload #{i}",
        usage=ModelUsage(input_tokens=10 + i, output_tokens=20 + i),
        elapsed_s=0.125 * i,
    )


def multi_url(*servers) -> str:
    return ",".join(s.url() for s in servers)


def replicated(*servers, **options) -> ReplicatedRunStore:
    options.setdefault("retry", FAST_RETRY)
    options.setdefault("breaker", FAST_BREAKER)
    return open_store(multi_url(*servers), **options)


@pytest.fixture()
def pair(tmp_path):
    a = InProcessServer(tmp_path / "replica-a")
    b = InProcessServer(tmp_path / "replica-b")
    yield a, b
    a.stop()
    b.stop()


class TestMultiUrl:
    def test_parse_multi(self):
        assert parse_store_url("tcp://a:1,tcp://b:2") == (
            "multi",
            [("tcp", ("a", 1)), ("tcp", ("b", 2))],
        )
        assert parse_store_url("tcp://a:1, unix:///tmp/b.sock") == (
            "multi",
            [("tcp", ("a", 1)), ("unix", "/tmp/b.sock")],
        )

    def test_single_entry_and_local_parts_refused(self):
        with pytest.raises(StoreError, match="at least two"):
            parse_store_url("tcp://a:1,")
        with pytest.raises(StoreError, match="remote URL"):
            parse_store_url("tcp://a:1,runs/local")

    def test_open_store_builds_replicated(self, pair):
        a, b = pair
        store = replicated(a, b)
        try:
            assert isinstance(store, ReplicatedRunStore)
            assert store.url == multi_url(a, b)
            assert store.client.describe_address() == multi_url(a, b)
            assert set(store.replica_states.values()) == {"closed"}
        finally:
            store.close()

    def test_run_config_from_url(self, pair):
        config = RunConfig.from_url(multi_url(*pair))
        try:
            assert isinstance(config.store, ReplicatedRunStore)
        finally:
            config.store.close()

    def test_replicated_client_needs_replicas_and_positive_hedge(self):
        with pytest.raises(StoreError, match="at least one replica"):
            ReplicatedStoreClient([])
        with pytest.raises(StoreError, match="hedge_s"):
            ReplicatedStoreClient([("tcp", ("h", 1))], hedge_s=0)


class TestReplication:
    def test_writes_land_on_every_replica(self, pair):
        a, b = pair
        gens = [make_generation(i) for i in range(6)]
        with replicated(a, b) as store:
            store.put_generations(gens)
        for server in (a, b):
            with open_store(server.url(), retry=FAST_RETRY) as single:
                found = single.get_generations([g.key for g in gens])
                assert len(found) == 6

    def test_write_succeeds_with_one_replica_down(self, pair):
        a, b = pair
        b.stop()
        gens = [make_generation(i) for i in range(4)]
        with replicated(a, b) as store:
            store.put_generations(gens)
            found = store.get_generations([g.key for g in gens])
        assert len(found) == 4

    def test_fanout_gc_and_verify_cover_both_replicas(self, pair):
        a, b = pair
        with replicated(a, b) as store:
            store.put_generations([make_generation(i) for i in range(5)])
            report = store.verify()
            gc = store.gc()
        # every replica holds every record, so the fanned-out audit
        # counts each one twice — and stays clean
        assert report.clean
        assert report.generations == 10
        assert gc.records_after == 10

    def test_keys_inventory_reads_one_replica(self, pair):
        a, b = pair
        gens = [make_generation(i) for i in range(3)]
        with replicated(a, b) as store:
            store.put_generations(gens)
            assert store.keys("gen") == sorted(g.key for g in gens)


class TestFailover:
    def test_reads_fail_over_when_a_replica_dies(self, pair):
        a, b = pair
        gens = [make_generation(i) for i in range(8)]
        with replicated(a, b) as store:
            store.put_generations(gens)
            a.stop()  # the preferred replica dies
            found = store.get_generations([g.key for g in gens])
            assert len(found) == 8
            assert store.client.failovers >= 1

    def test_breaker_opens_then_restart_rejoins(self, pair, tmp_path):
        a, b = pair
        gens = [make_generation(i) for i in range(4)]
        with replicated(a, b) as store:
            store.put_generations(gens)
            a.stop()
            # enough traffic to trip a's breaker (min_samples=2)
            for _ in range(3):
                store.get_generations([gens[0].key])
            assert store.replica_states[a.url()] == "open"
            # healthy reads now skip a entirely: no more failover churn
            before = store.client.failovers
            store.get_generations([gens[1].key])
            assert store.client.failovers == before

            a = a.restart()
            time.sleep(0.25)  # past open_for_s: next call is the probe
            found = store.get_generations([g.key for g in gens])
            assert len(found) == 4
            assert store.replica_states[a.url()] == "closed"
            assert store.client.health.get(a.url()).rejoined_total == 1
        a.stop()

    def test_total_outage_without_journal_raises_typed(self, pair):
        a, b = pair
        a.stop()
        b.stop()
        with replicated(a, b) as store:
            with pytest.raises(RemoteStoreError, match="no replica"):
                store.put_generations([make_generation(0)])
            # ping is not spillable either way
            with pytest.raises(RemoteStoreError, match="no replica"):
                store.ping()

    def test_deterministic_server_errors_never_fail_over(self, pair):
        with replicated(*pair) as store:
            before = store.client.failovers
            with pytest.raises(PersistError, match="unknown record kind"):
                store.get_records("nope", ["k"])
            assert store.client.failovers == before


class TestHedgedReads:
    def test_slow_replica_is_hedged_around(self, tmp_path):
        slow = InProcessServer(
            tmp_path / "slow",
            server=ChaosStoreServer(tmp_path / "slow", op_delay_s=0.5),
        )
        fast = InProcessServer(tmp_path / "fast")
        try:
            gens = [make_generation(i) for i in range(4)]
            # writes fan out, so both replicas hold the records
            with replicated(slow, fast) as store:
                store.put_generations(gens)
            with replicated(slow, fast, hedge_s=0.05) as store:
                t0 = time.perf_counter()
                found = store.get_generations([g.key for g in gens])
                elapsed = time.perf_counter() - t0
                assert len(found) == 4
                assert store.client.hedged_reads >= 1
            # the fast replica answered: nowhere near the 0.5s stall
            assert elapsed < 0.4
        finally:
            slow.stop()
            fast.stop()


def _slow_ping(server: StoreServer, request):
    time.sleep(0.1)
    return StoreServer._op_ping(server, request)


class _SlowPingServer(StoreServer):
    _OPS = {**StoreServer._OPS, "ping": _slow_ping}


class TestAdmissionControl:
    def test_max_inflight_validated(self, tmp_path):
        with pytest.raises(PersistError, match="max_inflight"):
            StoreServer(tmp_path / "s", max_inflight=0)

    def test_overload_refusal_is_typed_and_clients_retry_through(self, tmp_path):
        server = InProcessServer(
            tmp_path / "srv",
            server=_SlowPingServer(tmp_path / "srv", shards=1, max_inflight=1),
        )
        patient = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=0.2)
        results, errors = [], []

        def ping():
            try:
                with open_store(server.url(), retry=patient) as remote:
                    results.append(remote.ping()["server"])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=ping) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert results == ["repro.serve/1"] * 3
            refused = server.server._ops_total.value(op="ping", status="refused")
            assert refused >= 1  # the gate actually fired
        finally:
            server.stop()

    def test_exhausted_retries_raise_the_overload_error(self, tmp_path):
        server = InProcessServer(tmp_path / "srv", shards=1)
        try:
            server.server.drain()  # refuses forever: retries must give up
            with open_store(server.url(), retry=FAST_RETRY) as remote:
                with pytest.raises(ServerOverloadedError, match="draining"):
                    remote.ping()
            # typed and retryable: FaultPolicy-armed sweeps back off on it
            assert RetryPolicy().is_retryable(ServerOverloadedError("x"))
        finally:
            server.stop()


class TestDrain:
    def test_drain_refuses_new_work_and_wait_drained_settles(self, tmp_path):
        server = StoreServer(tmp_path / "srv", shards=1)
        assert server.handle({"op": "ping"})["ok"]
        server.drain()
        assert server.draining
        refused = server.handle({"op": "ping"})
        assert not refused["ok"]
        assert refused["error_type"] == "ServerOverloadedError"
        assert server.wait_drained(timeout_s=1.0)
        assert server.inflight == 0
        server.close()


class TestCrashSemantics:
    def test_stop_cuts_a_stalled_request_then_restart_serves(self, tmp_path):
        delay_s = 1.0
        root = tmp_path / "srv"
        gens = [make_generation(i) for i in range(3)]
        seed = InProcessServer(root)
        with open_store(seed.url(), retry=FAST_RETRY) as remote:
            remote.put_generations(gens)
        seed.stop()

        server = InProcessServer(
            root,
            port=seed.port,
            server=ChaosStoreServer(root, op_delay_s=delay_s),
        )
        outcome: dict[str, object] = {}

        def stalled_ping() -> None:
            no_retry = RetryPolicy(max_attempts=1)
            with open_store(server.url(), retry=no_retry) as remote:
                try:
                    outcome["answer"] = remote.ping()
                except RemoteStoreError as exc:
                    outcome["error"] = exc
                outcome["at"] = time.perf_counter()

        client = threading.Thread(target=stalled_ping)
        client.start()
        deadline = time.monotonic() + 10
        while server.server.delayed_requests == 0:
            assert time.monotonic() < deadline, "the ping never reached the server"
            time.sleep(0.005)
        stopped_at = time.perf_counter()
        server.stop()
        client.join(timeout=10)
        assert not client.is_alive()
        # the crash reached the client as a transport error, well before
        # the stalled handler would have answered
        assert isinstance(outcome.get("error"), RemoteStoreError)
        assert outcome["at"] - stopped_at < delay_s / 2

        restarted = server.restart()
        try:
            assert restarted.port == seed.port
            with open_store(restarted.url(), retry=FAST_RETRY) as remote:
                found = remote.get_generations([g.key for g in gens])
            assert {k: g.completion for k, g in found.items()} == {
                g.key: g.completion for g in gens
            }
        finally:
            restarted.stop()


class TestDegradedMode:
    def test_outage_sweep_spills_then_sync_converges(self, pair, tmp_path):
        a, b = pair
        journal = tmp_path / "journal"
        reference = run_configuration(**SMALL)

        a.stop()
        b.stop()  # 100% unreachable: the sweep must complete offline
        with replicated(a, b, spill_root=journal) as store:
            config = RunConfig(store=store)
            offline = run_configuration(**SMALL, config=config)
            assert store.client.spilled_batches > 0
            assert store.client.degraded  # every breaker open by now
        for row in reference.row_keys:
            for model in reference.models:
                assert offline.cell(row, model) == reference.cell(row, model)
        assert (journal / "shard-00").exists()

        # recovery: servers return, sync pushes the journal everywhere
        a = a.restart()
        b = b.restart()
        summary = sync([a.url(), b.url()], journal=journal)
        assert summary["journal_records"] > 0
        assert summary["journal_manifests"] == 1

        # both replicas converged on the journal's inventory
        inventories = []
        for server in (a, b):
            with open_store(server.url(), retry=FAST_RETRY) as single:
                inventories.append(
                    (single.keys("gen"), single.keys("score"))
                )
                assert single.latest_manifest() is not None
        assert inventories[0] == inventories[1]
        assert len(inventories[0][0]) > 0

        # a warm sweep against the healed replicas regenerates nothing
        with replicated(a, b) as store:
            config = RunConfig(store=store)
            warm = run_configuration(**SMALL, config=config)
            manifest = store.latest_manifest()
        assert manifest.stats.generated == 0
        for row in reference.row_keys:
            for model in reference.models:
                assert warm.cell(row, model) == reference.cell(row, model)
        a.stop()
        b.stop()

    def test_reads_after_outage_see_spilled_writes(self, pair, tmp_path):
        a, b = pair
        a.stop()
        b.stop()
        gens = [make_generation(i) for i in range(3)]
        with replicated(a, b, spill_root=tmp_path / "journal") as store:
            store.put_generations(gens)  # spilled
            a = a.restart()
            b = b.restart()
            time.sleep(0.25)  # cooldown: replicas rejoin via probes
            # the replicas never saw these writes; the journal overlay
            # keeps the client's own history visible
            found = store.get_generations([g.key for g in gens])
            assert len(found) == 3
        a.stop()
        b.stop()

    def test_sync_cli_prunes_the_journal(self, pair, tmp_path, capsys):
        a, b = pair
        journal = tmp_path / "journal"
        a.stop()
        b.stop()
        with replicated(a, b, spill_root=journal) as store:
            store.put_generations([make_generation(i) for i in range(4)])
        a = a.restart()
        b = b.restart()
        code = serve_main(
            ["sync", a.url(), b.url(), "--journal", str(journal), "--prune"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replicas converged" in out
        assert f"pruned journal {journal}" in out
        assert not journal.exists()
        with open_store(b.url(), retry=FAST_RETRY) as single:
            assert len(single.keys("gen")) == 4
        a.stop()
        b.stop()

    def test_sync_is_replica_to_replica_anti_entropy(self, pair):
        a, b = pair
        gens = [make_generation(i) for i in range(5)]
        with open_store(a.url(), retry=FAST_RETRY) as only_a:
            only_a.put_generations(gens)  # b never sees these
        summary = sync([a.url(), b.url()])
        assert summary["replicas"][b.url()]["records"] == 5
        assert summary["replicas"][a.url()]["records"] == 0
        with open_store(b.url(), retry=FAST_RETRY) as single:
            assert len(single.get_generations([g.key for g in gens])) == 5

    def test_sync_refuses_local_and_multi_urls(self, tmp_path):
        with pytest.raises(StoreError, match="individual replica URLs"):
            sync([str(tmp_path / "local")])
        with pytest.raises(StoreError, match="individual replica URLs"):
            sync(["tcp://a:1,tcp://b:2"])


class TestServerProcessChaos:
    """Real subprocesses: only ``kill -9`` proves crash-tolerance."""

    def test_sweep_survives_sigkill_of_one_replica(self, tmp_path, monkeypatch):
        reference = run_configuration(**SMALL)
        with ServerProcess(tmp_path / "proc-a") as a:
            with ServerProcess(tmp_path / "proc-b") as b:
                # kill replica a at a point the sweep must reach — its
                # first replicated write — not on a wall-clock timer
                real_write = ReplicatedStoreClient._replicated_write

                def kill_then_write(self, requests, op):
                    a.kill()
                    return real_write(self, requests, op)

                monkeypatch.setattr(
                    ReplicatedStoreClient, "_replicated_write", kill_then_write
                )
                store = replicated(a, b)
                try:
                    config = RunConfig(store=store)
                    grid = run_configuration(**SMALL, config=config)
                finally:
                    monkeypatch.undo()
                    store.close()
                assert not a.alive
                for row in reference.row_keys:
                    for model in reference.models:
                        assert grid.cell(row, model) == reference.cell(
                            row, model
                        )
                # the survivor holds the full sweep: a warm run against it
                # alone regenerates nothing
                with open_store(b.url(), retry=FAST_RETRY) as survivor:
                    config = RunConfig(store=survivor)
                    warm = run_configuration(**SMALL, config=config)
                    manifest = survivor.latest_manifest()
                assert manifest.stats.generated == 0
                for row in reference.row_keys:
                    for model in reference.models:
                        assert warm.cell(row, model) == reference.cell(
                            row, model
                        )

    def test_sigterm_drains_and_cleans_up(self, tmp_path):
        sock = tmp_path / "drain.sock"
        server = ServerProcess(
            tmp_path / "proc", extra_args=["--unix", str(sock)]
        )
        try:
            assert sock.exists()
            assert server.ready_file.exists()
            code = server.terminate()
            assert code == 0
            # graceful exit removed the socket and the ready file, and
            # snapshotted every shard index
            assert not sock.exists()
            assert not server.ready_file.exists()
            for shard in range(server.shards):
                index = tmp_path / "proc" / f"shard-{shard:02d}" / "index.json"
                assert index.exists()
        finally:
            server.kill()


class TestUnixSocketHygiene:
    def test_stale_socket_file_is_replaced_on_bind(self, tmp_path):
        path = tmp_path / "stale.sock"
        # a previous process died hard and left its socket file behind
        left_behind = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        left_behind.bind(str(path))
        left_behind.close()
        assert path.exists()

        server = StoreServer(tmp_path / "srv", shards=1)
        bound = server.start_unix(path)
        assert pathlib.Path(bound).exists()
        server.close()

    def test_regular_file_at_socket_path_is_refused(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("not a socket")

        server = StoreServer(tmp_path / "srv", shards=1)
        try:
            with pytest.raises(PersistError, match="non-socket"):
                server.start_unix(path)
        finally:
            server.close()
        assert path.read_text() == "not a socket"  # untouched

    def test_refused_boot_closes_what_it_opened(self, tmp_path, capsys):
        path = tmp_path / "precious.txt"
        path.write_text("not a socket")
        root = tmp_path / "srv"

        code = serve_main(
            ["--root", str(root), "--tcp", "127.0.0.1:0", "--unix", str(path)]
        )
        assert code == 2
        assert "non-socket" in capsys.readouterr().err
        assert path.read_text() == "not a socket"  # not unlinked on the way out
        # the stores were closed, which snapshots every shard index
        for shard in range(2):
            assert (root / f"shard-{shard:02d}" / "index.json").exists()

    def test_port_in_use_exits_2_without_a_traceback(self, tmp_path):
        held = socket.create_server(("127.0.0.1", 0))
        try:
            port = held.getsockname()[1]
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            proc = subprocess.run(
                [sys.executable, "-m", "repro.serve", "--root", str(tmp_path / "srv"),
                 "--tcp", f"127.0.0.1:{port}"],
                capture_output=True, text=True, env=env, timeout=60,
            )
        finally:
            held.close()
        assert proc.returncode == 2, proc.stderr
        assert f"error: cannot listen on tcp://127.0.0.1:{port}" in proc.stderr
        assert "Traceback" not in proc.stderr
