"""Observability layer: tracing, metrics, schema migration, trends, CLIs.

Phase profiles read off a trace keep their own suite in
``test_perf.py``; this file covers the rest — identified spans that
cross process boundaries, the metrics registry, the ``repro.stats/2``
schema bump, and the ``python -m repro.obs`` CLI.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import pytest

from repro import obs
from repro.errors import HarnessError

from executor_paths import EXECUTOR_PATHS, executor_path

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def make_plan(name="obs-test", system="adios2", epochs=1):
    from repro.core.experiments.configuration import configuration_task
    from repro.runtime import Plan

    plan = Plan(name)
    plan.add_eval(configuration_task(system), "sim/o3", epochs=epochs)
    return plan


class TestTracer:
    def test_lifecycle_and_span_parenting(self):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            trace = tracer.end_trace(handle)
        by_name = {s.name: s for s in trace.spans}
        root = trace.root
        assert root.name == "t" and root.parent_id is None
        assert by_name["outer"].parent_id == root.span_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert len({s.span_id for s in trace.spans}) == len(trace.spans)
        assert trace.dropped == 0

    def test_nested_begin_trace_folds_into_outer(self):
        with obs.tracing() as tracer:
            outer = tracer.begin_trace("outer")
            assert tracer.begin_trace("inner") is None
            with obs.span("work"):
                pass
            trace = tracer.end_trace(outer)
        assert {s.name for s in trace.spans} == {"outer", "work"}

    def test_spans_between_traces_are_not_recorded(self):
        with obs.tracing() as tracer:
            with obs.span("limbo"):
                pass  # armed but no open trace: must not record or raise
            handle = tracer.begin_trace("t")
            trace = tracer.end_trace(handle)
        assert [s.name for s in trace.spans] == ["t"]

    def test_record_remote_folds_and_tolerates_garbage(self):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            good = obs.make_span_dict(
                "remote-work", parent_id=tracer.current_span_id(),
                start_unix=1.0, duration_s=0.5,
            )
            assert obs.fold_remote_spans([good, {"nope": True}]) == 1
            trace = tracer.end_trace(handle)
        span = {s.name: s for s in trace.spans}["remote-work"]
        assert span.parent_id == trace.root.span_id
        assert span.pid == os.getpid()

    def test_fold_remote_spans_is_a_noop_when_off(self):
        assert obs.fold_remote_spans([{"anything": 1}]) == 0
        assert obs.propagation_context() is None

    def test_propagation_context_carries_trace_and_span(self):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("caller") as caller_id:
                ctx = obs.propagation_context()
                assert ctx == {"id": tracer.current_trace_id(),
                               "parent": caller_id}
            tracer.end_trace(handle)

    def test_max_spans_drops_and_counts(self):
        with obs.tracing(obs.Tracer(max_spans=3)) as tracer:
            handle = tracer.begin_trace("t")
            for i in range(6):
                with obs.span(f"s{i}"):
                    pass
            trace = tracer.end_trace(handle)
        # 3 kept + the root span appended at close
        assert len(trace.spans) == 4
        assert trace.dropped == 3

    def test_on_finish_hook_sees_each_trace(self):
        finished = []
        with obs.tracing(obs.Tracer(on_finish=finished.append)) as tracer:
            for name in ("a", "b"):
                handle = tracer.begin_trace(name)
                tracer.end_trace(handle)
        assert [t.name for t in finished] == ["a", "b"]

    def test_trace_dict_roundtrip(self):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("work"):
                pass
            trace = tracer.end_trace(handle)
        assert obs.Trace.from_dict(trace.as_dict()) == trace
        with pytest.raises(HarnessError):
            obs.Trace.from_dict({"schema": "nope"})

    def test_chrome_export_shape(self, tmp_path):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("work"):
                pass
            trace = tracer.end_trace(handle)
        out = tmp_path / "chrome.json"
        trace.write_chrome(out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"t", "work"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] > 0
        assert any(e["ph"] == "M" for e in events)  # lane metadata


class TestMetrics:
    def test_counter_labels_and_snapshot(self):
        registry = obs.MetricsRegistry()
        ops = registry.counter("ops_total", "ops", ("op",))
        ops.inc(op="get")
        ops.inc(2, op="put")
        assert ops.value(op="get") == 1
        assert ops.value(op="put") == 2
        assert ops.value(op="never") == 0
        snap = registry.snapshot()
        assert snap["schema"] == obs.METRICS_SCHEMA
        (metric,) = snap["metrics"]
        assert {s["labels"]["op"]: s["value"] for s in metric["series"]} == {
            "get": 1.0, "put": 2.0,
        }

    def test_gauge_inc_dec(self):
        gauge = obs.MetricsRegistry().gauge("inflight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value() == 1

    def test_histogram_quantiles_and_counts(self):
        hist = obs.MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.05, 0.5, 2.0):
            hist.observe(v)
        (series,) = hist._snapshot_series()
        assert series["count"] == 4
        assert series["min"] == 0.05 and series["max"] == 2.0
        assert series["sum"] == pytest.approx(2.6)
        assert 0.05 <= series["p50"] <= 0.5
        assert series["p99"] <= 2.0  # clamped to the observed max
        assert dict((str(b), c) for b, c in series["buckets"]) == {
            "0.1": 2, "1.0": 1, "+Inf": 1,
        }

    def test_label_mismatch_raises(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("c", labelnames=("op",))
        with pytest.raises(HarnessError):
            counter.inc()  # missing the declared label
        with pytest.raises(HarnessError):
            counter.inc(op="x", extra="y")
        registry.counter("c", labelnames=("op",))  # same spec: fine
        with pytest.raises(HarnessError):
            registry.counter("c", labelnames=("other",))
        with pytest.raises(HarnessError):
            registry.gauge("c", labelnames=("op",))  # same name, new type

    def test_render_prometheus(self):
        registry = obs.MetricsRegistry()
        registry.counter("reqs_total", "requests", ("op",)).inc(op="get")
        registry.histogram("lat_seconds", "latency",
                           buckets=(0.1, 1.0)).observe(0.05)
        text = obs.render_prometheus(registry.snapshot())
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{op="get"} 1' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        with pytest.raises(HarnessError):
            obs.render_prometheus({"not": "a snapshot"})


class TestSpanDispatch:
    def test_disarmed_span_is_shared_noop(self):
        assert obs.span("a") is obs.span("b")

    def test_tracer_only_records_identified_spans(self):
        assert obs.active_tracer() is None
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("solo"):
                pass
            trace = tracer.end_trace(handle)
        assert "solo" in {s.name for s in trace.spans}

    def test_one_span_lands_in_the_trace_and_its_profile(self):
        with obs.tracing() as tracer:
            handle = tracer.begin_trace("t")
            with obs.span("both"):
                time.sleep(0.001)
            trace = tracer.end_trace(handle)
        assert "both" in {s.name for s in trace.spans}
        assert trace.profile().calls("both") == 1


class TestRunnerIntegration:
    def test_run_gets_a_trace_id_and_named_phases(self):
        from repro.runtime import run

        plan = make_plan()
        with obs.tracing() as tracer:
            outcome = run(plan)
        assert outcome.stats.trace_id is not None
        # without a tracer the field stays None (and costs nothing)
        assert run(plan).stats.trace_id is None

    def test_trace_lands_on_the_manifest(self, tmp_path):
        from repro.persist import RunStore
        from repro.runtime import RunConfig, run

        plan = make_plan()
        with obs.tracing():
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                outcome = run(plan, config=config)
                manifest = store.latest_manifest()
        assert manifest.trace is not None
        assert manifest.trace["trace_id"] == outcome.stats.trace_id
        names = {s["name"] for s in manifest.trace["spans"]}
        assert {"generate", "score", "cache-get"} <= names
        payload = manifest.to_payload()
        assert payload["stats"]["schema"] == "repro.stats/2"
        # the run's counts are recorded once, in its stats
        assert "metrics" not in payload

    def test_trace_closes_when_the_run_raises(self):
        from repro.errors import ModelError
        from repro.runtime import run
        from repro.testing import FaultPlan, faulty_models

        plan = make_plan()
        storm = FaultPlan(seed=0, transient_rate=1.0, transient_times=99)
        with obs.tracing() as tracer:
            with faulty_models(["sim/o3"], storm):
                with pytest.raises(ModelError):
                    run(plan)  # no fault policy: the first strike aborts
            # the failed run's trace was sealed: a new one can open
            handle = tracer.begin_trace("after")
            assert handle is not None
            tracer.end_trace(handle)

    def test_grids_bit_identical_with_telemetry_armed(self):
        from repro.core.experiments import run_configuration

        sweep = dict(models=["o3"], systems=["adios2"], epochs=2)
        bare = run_configuration(**sweep)
        with obs.tracing():
            armed = run_configuration(**sweep)
        assert armed.cells == bare.cells

    def test_thread_spans_parent_the_generate_span(self):
        from repro.core.experiments import run_configuration
        from repro.runtime import RunConfig, ThreadExecutor

        traces = []
        with obs.tracing(obs.Tracer(on_finish=traces.append)):
            run_configuration(models=["o3"], systems=["adios2"], epochs=2,
                              config=RunConfig(executor=ThreadExecutor(4)))
        (trace,) = traces
        by_id = {s.span_id: s for s in trace.spans}
        spans = [s for s in trace.spans if s.name == "unit"]
        assert len(spans) == 2  # one per unit: one system, two epochs
        for span in spans:
            assert by_id[span.parent_id].name == "generate"
        profile = trace.profile()
        assert profile.calls("generate/unit") == len(spans)
        assert "unit" not in profile.phases  # not counted again at top level

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_provider_spans_nest_under_the_unit_span(self, path):
        from repro.core.experiments.configuration import configuration_task
        from repro.llm.api import Model, get_model
        from repro.runtime import Plan, RunConfig, run

        inner = get_model("sim/o3").provider

        class Spanning:
            name = f"spanning/{path}"

            def generate(self, messages, config):
                with obs.span("provider-call"):
                    return inner.generate(messages, config)

        plan = Plan("provider-spans")
        plan.add_eval(configuration_task("adios2"), Model(Spanning()), epochs=2)
        traces = []
        with obs.tracing(obs.Tracer(on_finish=traces.append)):
            run(plan, config=RunConfig(executor=executor_path(path)))
        (trace,) = traces
        profile = trace.profile()
        assert profile.calls("generate/unit/provider-call") == 2
        assert "provider-call" not in profile.phases


class TestServeTracePropagation:
    def test_client_spans_parent_server_spans(self, tmp_path):
        from test_serve import ServerThread

        srv = ServerThread(tmp_path / "served")
        try:
            with obs.tracing() as tracer:
                handle = tracer.begin_trace("wire")
                with srv.client() as remote:
                    remote.ping()
                    remote.stats()
                trace = tracer.end_trace(handle)
        finally:
            srv.stop()
        by_id = {s.span_id: s for s in trace.spans}
        servers = [s for s in trace.spans if s.name.startswith("server:")]
        assert {s.name for s in servers} >= {"server:ping", "server:stats"}
        for span in servers:
            parent = by_id[span.parent_id]
            assert parent.name == span.name.replace("server:", "remote:")
        # server spans were timed on the server's own event-loop thread
        assert any(s.thread != threading.current_thread().name
                   for s in servers)

    def test_metrics_op_and_prometheus_dump(self, tmp_path):
        from test_serve import ServerThread

        srv = ServerThread(tmp_path / "served")
        try:
            with srv.client() as remote:
                remote.ping()
                live = remote.metrics()
                text = remote.dump_metrics()
        finally:
            srv.stop()
        assert live["metrics"]["schema"] == obs.METRICS_SCHEMA
        summary = live["summary"]
        assert summary["requests_served"] >= 1
        assert "ping" in summary["ops"]
        assert summary["ops"]["ping"]["count"] >= 1
        assert {"p50_s", "p95_s", "p99_s"} <= set(summary["ops"]["ping"])
        assert len(summary["shards"]) == 2
        assert 'repro_server_ops_total{op="ping",status="ok"}' in text

    def test_untraced_requests_stay_clean(self, tmp_path):
        from test_serve import ServerThread

        srv = ServerThread(tmp_path / "served")
        try:
            with srv.client() as remote:
                response = remote.ping()
        finally:
            srv.stop()
        assert "spans" not in response


class TestSchemaMigration:
    @pytest.mark.parametrize("fixture", ["manifest_v1.json",
                                         "manifest_v2.json"])
    def test_fixture_manifests_rehydrate_and_render(self, fixture):
        from repro.persist.manifest import RunManifest

        payload = json.loads((FIXTURES / fixture).read_text())
        manifest = RunManifest.from_payload(payload)
        assert manifest.stats.total_units == 1
        rendered = obs.render_manifest(payload, title="fixture")
        assert manifest.run_id in rendered
        # the payload survives a roundtrip through the current code
        assert RunManifest.from_payload(manifest.to_payload()) == manifest

    def test_pre_2_manifest_has_no_observability_fields(self):
        from repro.persist.manifest import RunManifest

        payload = json.loads((FIXTURES / "manifest_v1.json").read_text())
        assert payload["stats"]["schema"] == "repro.stats/1"
        manifest = RunManifest.from_payload(payload)
        assert manifest.trace is None
        assert manifest.stats.trace_id is None
        # rewriting keeps the payload lean: no null keys appear
        rewritten = manifest.to_payload()
        assert "trace" not in rewritten and "metrics" not in rewritten

    def test_legacy_metrics_key_loads_and_is_dropped(self):
        from repro.persist.manifest import RunManifest

        payload = json.loads((FIXTURES / "manifest_v2.json").read_text())
        assert payload["stats"]["schema"] == "repro.stats/2"
        assert payload["metrics"]["schema"] == obs.METRICS_SCHEMA
        manifest = RunManifest.from_payload(payload)
        assert manifest.trace["trace_id"] == manifest.stats.trace_id
        assert manifest.trace["spans"]
        # saving the manifest again keeps its trace and drops the snapshot
        rewritten = manifest.to_payload()
        assert rewritten["trace"] == payload["trace"]
        assert "metrics" not in rewritten

    def test_store_roundtrips_pre_2_manifest(self, tmp_path):
        from repro.persist import RunStore
        from repro.persist.manifest import RunManifest

        payload = json.loads((FIXTURES / "manifest_v1.json").read_text())
        manifest = RunManifest.from_payload(payload)
        with RunStore(tmp_path / "store") as store:
            store.put_manifest(manifest)
            assert store.manifest(manifest.run_id) == manifest


class TestTrend:
    def _seed_store(self, root):
        from repro.persist import RunStore
        from repro.runtime import RunConfig, run

        plan = make_plan(name="trend-plan", epochs=2)
        with RunStore(root) as store:
            config = RunConfig(store=store)
            run(plan, config=config)
            run(plan, config=config)  # warm: pure cache hits

    def test_collect_and_render(self, tmp_path):
        from repro.obs.trend import collect_trend, render_trend

        self._seed_store(tmp_path / "store")
        rows = collect_trend(str(tmp_path / "store"))
        assert len(rows) == 2
        cold, warm = rows  # sorted by start time
        assert cold["cache_hit_rate"] == 0.0
        assert warm["cache_hit_rate"] == 1.0
        assert warm["total_units"] == 2
        rendered = render_trend(rows)
        assert "trend-plan" in rendered
        assert "100.0%" in rendered

    def test_trend_cli_json(self, tmp_path, capsys):
        from repro.obs.cli import main

        self._seed_store(tmp_path / "store")
        assert main(["trend", "--store", str(tmp_path / "store"),
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["plan_name"] for row in rows] == ["trend-plan"] * 2

    def test_phase_columns_come_from_the_trace(self, tmp_path):
        from repro.obs.trend import collect_trend, render_trend

        with obs.tracing():
            self._seed_store(tmp_path / "store")
        cold, warm = collect_trend(str(tmp_path / "store"))
        assert cold["phase_s"]["generate"] > 0
        assert cold["phase_s"]["score"] > 0
        assert "generate" not in warm["phase_s"]  # warm: zero generations
        assert warm["phase_s"]["cache-get"] >= 0
        rendered = render_trend([cold, warm])
        assert "gen s" in rendered and "score s" in rendered
        cold_line = next(line for line in rendered.splitlines()
                         if line.strip().startswith(str(cold["run_id"])[:14]))
        assert cold_line.split()[-2] == f"{cold['phase_s']['generate']:.2f}"

    def test_legacy_profile_payload_has_no_phases(self):
        from repro.obs.trend import trend_row
        from repro.runtime.runner import RunStats

        payload = json.loads((FIXTURES / "manifest_v1.json").read_text())
        assert payload["stats"]["profile"] and "trace" not in payload
        assert trend_row(payload)["phase_s"] == {}
        assert RunStats.from_dict(payload["stats"]).total_units == 1

    @pytest.mark.parametrize("trace", ["x", {"trace_id": "t", "spans": "x"}])
    def test_malformed_trace_skips_only_its_phases(self, trace):
        from repro.obs.trend import render_trend, trend_row

        good = json.loads((FIXTURES / "manifest_v2.json").read_text())
        bad = {**good, "run_id": "run-bad", "trace": trace}
        rows = [trend_row(good), trend_row(bad)]
        assert rows[0]["phase_s"]["generate"] > 0
        assert rows[1]["phase_s"] == {}
        assert "run-bad" in render_trend(rows)

    def test_empty_store_renders_cleanly(self, tmp_path):
        from repro.obs.trend import collect_trend, render_trend
        from repro.persist import RunStore

        RunStore(tmp_path / "store").close()
        rows = collect_trend(str(tmp_path / "store"))
        assert rows == []
        assert "no run manifests" in render_trend(rows)


class TestObsCLI:
    def _recorded_store(self, root):
        from repro.persist import RunStore
        from repro.runtime import RunConfig, run

        with obs.tracing():
            with RunStore(root) as store:
                outcome = run(make_plan(), config=RunConfig(store=store))
        return outcome.stats.trace_id, store.root

    def test_trace_summary_and_chrome_export(self, tmp_path, capsys):
        from repro.obs.cli import main
        from repro.persist import RunStore

        self._recorded_store(tmp_path / "store")
        with RunStore(tmp_path / "store") as store:
            run_id = store.latest_manifest().run_id
        out_json = tmp_path / "chrome.json"
        assert main(["trace", run_id, "--store", str(tmp_path / "store"),
                     "--chrome", str(out_json)]) == 0
        printed = capsys.readouterr().out
        assert "spans" in printed
        assert json.loads(out_json.read_text())["traceEvents"]

    def test_trace_missing_is_a_clean_error(self, tmp_path, capsys):
        from repro.obs.cli import main
        from repro.persist import RunStore
        from repro.runtime import RunConfig, run

        with RunStore(tmp_path / "store") as store:
            run(make_plan(), config=RunConfig(store=store))  # untraced
            run_id = store.latest_manifest().run_id
        assert main(["trace", run_id,
                     "--store", str(tmp_path / "store")]) == 2
        assert "no recorded trace" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trend", "--store"],
        ["trace", "run-0", "--store"],
    ], ids=["trend", "trace"])
    def test_mistyped_store_path_is_an_error_not_a_new_store(self, argv,
                                                             tmp_path, capsys):
        from repro.obs.cli import main

        typo = tmp_path / "stroe"
        assert main([*argv, str(typo)]) == 2
        assert f"no store at {typo}" in capsys.readouterr().err
        assert not typo.exists()

    def test_report_shows_the_trace_phase_profile(self, tmp_path, capsys):
        from repro.obs.cli import main

        self._recorded_store(tmp_path / "store")
        (path,) = (tmp_path / "store" / "manifests").glob("*.json")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase profile (recorded with the run)" in out
        assert "\ngenerate " in out and "lower bounds" not in out

    def test_report_legacy_manifest_has_no_phase_table(self, capsys):
        from repro.obs.cli import main

        assert main(["report", str(FIXTURES / "manifest_v1.json")]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out and "phase profile" not in out

    @pytest.mark.parametrize("trace", [
        "x",  # not a dict, and no stats.trace_id to fall back on
        ["spans"],
        {"trace_id": "t", "spans": "x"},
        {"trace_id": "t", "spans": ["x"]},
        {"trace_id": "t", "spans": [], "dropped": "many"},
    ])
    def test_report_malformed_trace_is_a_clean_error(self, trace, tmp_path,
                                                     capsys):
        from repro.obs.cli import main

        payload = json.loads((FIXTURES / "manifest_v1.json").read_text())
        payload["trace"] = trace
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "span(s) recorded" not in captured.out

    def test_ls_runs_trace_column(self, tmp_path, capsys):
        from repro.persist.cli import main

        self._recorded_store(tmp_path / "store")
        assert main(["ls-runs", "--trace", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "trace " in out and "spans)" in out
