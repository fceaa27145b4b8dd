"""Phase instrumentation: spans, profiles, report rendering, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import HarnessError

from repro import obs
from repro.obs import PhaseProfile, PhaseTotals, SpanRecord, Trace
from repro.obs.trace import MAX_SPANS


def traced(body, *, max_spans=MAX_SPANS) -> Trace:
    """Run ``body()`` inside one open trace and return the sealed trace."""
    with obs.tracing(obs.Tracer(max_spans=max_spans)) as tracer:
        handle = tracer.begin_trace("t")
        body()
        return tracer.end_trace(handle)


def span_record(span_id, parent_id, name, duration_s):
    return SpanRecord(span_id=span_id, parent_id=parent_id, name=name,
                      start_unix=0.0, duration_s=duration_s, pid=1,
                      thread="main")


class TestSpans:
    def test_span_without_tracer_is_a_noop(self):
        assert obs.active_tracer() is None
        with obs.span("anything"):
            pass  # must not raise, must not record anywhere

    def test_trace_profile_records_span_time(self):
        def body():
            with obs.span("alpha"):
                time.sleep(0.002)

        profile = traced(body).profile()
        assert obs.active_tracer() is None  # tracing() restored the previous one
        assert profile.calls("alpha") == 1
        assert profile.total_s("alpha") >= 0.002
        assert "t" not in profile.phases  # the root span is left out

    def test_spans_nest_into_paths(self):
        def body():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass

        profile = traced(body).profile()
        assert profile.calls("outer") == 1
        assert profile.calls("outer/inner") == 2
        assert "inner" not in profile.phases  # only the nested path exists

    def test_threads_add_into_one_profile(self):
        def work():
            for _ in range(50):
                with obs.span("worker"):
                    pass

        def body():
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert traced(body).profile().calls("worker") == 200

    def test_thread_nesting_is_per_thread(self):
        """A span opened in one thread never nests under another's."""
        inside = threading.Event()
        release = threading.Event()

        def outer_holder():
            with obs.span("held"):
                inside.set()
                release.wait(timeout=5)

        def body():
            t = threading.Thread(target=outer_holder)
            t.start()
            inside.wait(timeout=5)
            with obs.span("independent"):
                pass
            release.set()
            t.join()

        profile = traced(body).profile()
        assert profile.calls("independent") == 1
        assert profile.calls("held/independent") == 0

    def test_carried_spans_nest_under_the_submitting_span(self):
        def unit(_):
            with obs.span("unit"):
                pass

        def body():
            with obs.span("generate"):
                work = obs.carry_span(unit)
                threads = [threading.Thread(target=work, args=(None,))
                           for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

        profile = traced(body).profile()
        assert profile.calls("generate/unit") == 2
        assert profile.calls("unit") == 0

    def test_carry_span_is_the_function_itself_when_off(self):
        def unit(_):
            return 1

        assert obs.carry_span(unit) is unit
        with obs.tracing():  # armed, but no open trace
            assert obs.carry_span(unit) is unit

    def test_remote_span_with_unknown_parent_is_top_level(self):
        def body():
            with obs.span("cache-get") as caller:
                obs.fold_remote_spans([
                    obs.make_span_dict("server:get", parent_id=caller,
                                       start_unix=time.time(), duration_s=0.1),
                    obs.make_span_dict("server:put", parent_id="feedfacefeedface",
                                       start_unix=time.time(), duration_s=0.2),
                ])

        profile = traced(body).profile()
        assert profile.calls("cache-get/server:get") == 1
        assert profile.calls("server:put") == 1
        assert profile.total_s("server:put") == pytest.approx(0.2)

    def test_parent_cycle_ends_the_path(self):
        trace = Trace(trace_id="x", name="t", spans=(
            span_record("a", "b", "a", 0.1),
            span_record("b", "a", "b", 0.2),
        ))
        # a malformed trace still terminates: each walk stops at the loop
        assert sorted(trace.profile().phases) == ["a/b", "b/a"]

    def test_dropped_spans_are_reported(self):
        def body():
            for _ in range(5):
                with obs.span("s"):
                    pass

        trace = traced(body, max_spans=2)
        assert trace.dropped == 3
        assert trace.profile().calls("s") == 2  # a lower bound
        title = obs.profile_title("phase profile", trace.dropped)
        assert "lower bounds" in title and "3 span(s)" in title
        assert obs.profile_title("phase profile", 0) == "phase profile"


class TestPhaseProfile:
    def test_merged_sums(self):
        a = PhaseProfile({"p": PhaseTotals(calls=1, total_s=1.0, max_s=1.0)})
        b = PhaseProfile({"p": PhaseTotals(calls=2, total_s=0.5, max_s=0.4),
                          "q": PhaseTotals(calls=1, total_s=0.1, max_s=0.1)})
        merged = a.merged(b)
        assert merged.phases["p"] == PhaseTotals(calls=3, total_s=1.5, max_s=1.0)
        assert merged.calls("q") == 1

    def test_merged_over_two_traces(self):
        def body():
            with obs.span("generate"):
                with obs.span("unit"):
                    pass

        first, second = traced(body), traced(body)
        merged = first.profile().merged(second.profile())
        assert merged.calls("generate") == 2
        assert merged.calls("generate/unit") == 2
        assert merged.total_s("generate") == pytest.approx(
            first.profile().total_s("generate")
            + second.profile().total_s("generate")
        )

    def test_dict_roundtrip(self):
        def body():
            with obs.span("a"):
                with obs.span("b"):
                    pass

        profile = traced(body).profile()
        assert PhaseProfile.from_dict(profile.as_dict()) == profile

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(HarnessError):
            PhaseProfile.from_dict({"nope": 1})
        with pytest.raises(HarnessError):
            PhaseProfile.from_dict({"phases": {"p": {"calls": "x"}}})


class TestReport:
    def test_render_contains_phases_and_shares(self):
        def body():
            with obs.span("generate"):
                with obs.span("store-io"):
                    pass
            with obs.span("score"):
                pass

        text = obs.render_profile(traced(body).profile())
        assert "generate" in text and "score" in text
        assert "store-io" in text  # nested child rendered under its parent
        assert "share" in text

    def test_render_empty(self):
        assert "no phases" in obs.render_profile(PhaseProfile({}))

    def test_load_profile_accepts_wrapper_and_bare(self, tmp_path):
        def body():
            with obs.span("x"):
                pass

        profile = traced(body).profile()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(profile.as_dict()))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps(obs.profile_payload(profile, note="hi")))
        assert obs.load_profile(bare) == profile
        assert obs.load_profile(wrapped) == profile

    def test_load_profile_errors(self, tmp_path):
        with pytest.raises(HarnessError):
            obs.load_profile(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(HarnessError):
            obs.load_profile(bad)

    def test_render_manifest_shows_scoring_and_read_stats(self):
        payload = {
            "run_id": "run-123",
            "plan_name": "configuration",
            "plan_fingerprint": "ab" * 32,
            "executor": "SerialExecutor()",
            "wall_seconds": 1.5,
            "resumed_from": "run-122",
            "stats": {
                "total_units": 24,
                "generated": 0,
                "cache_hits": 24,
                "deduplicated": 0,
                "scores_computed": 0,
                "score_hits": 24,
                "read_lru_hits": 8,
                "read_lru_misses": 16,
                "bytes_read": 2048,
            },
        }
        text = obs.render_manifest(payload)
        assert "run-123" in text
        assert "resumed" in text and "run-122" in text
        assert "computed=0  score_hits=24" in text
        assert "8 hit(s) / 16 miss(es)" in text
        assert "33% hit rate" in text
        assert "2.0 KiB" in text

    def test_render_manifest_zero_reads(self):
        text = obs.render_manifest({"run_id": "r", "stats": {"total_units": 1}})
        assert "0 hit(s) / 0 miss(es)" in text
        assert "hit rate" not in text  # no division by zero, no bogus %
        assert "0 B" in text


class TestRuntimeIntegration:
    def test_run_trace_profiles_its_phases(self):
        from repro.core.experiments.configuration import configuration_task
        from repro.runtime import Plan, run

        plan = Plan("perf-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        traces = []
        with obs.tracing(obs.Tracer(on_finish=traces.append)):
            run(plan)
        (trace,) = traces
        profile = trace.profile()
        assert profile.calls("generate") == 1
        assert profile.calls("generate/unit") == 1
        # score-cache consultation + assembly: two score spans per run
        assert profile.calls("score") == 2
        assert profile.calls("cache-get") == 1
        assert f"run:{plan.name}" not in profile.phases

    def test_store_io_phases_nest_under_cache_phases(self, tmp_path):
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run
        from repro.core.experiments.configuration import configuration_task

        plan = Plan("perf-store-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        traces = []
        with obs.tracing(obs.Tracer(on_finish=traces.append)):
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                run(plan, config=config)
        profile = traces[0].profile()
        assert profile.calls("cache-put/store-io/append") >= 1
        assert profile.calls("cache-get/store-io/read") >= 1

    def test_profile_survives_manifest_roundtrip(self, tmp_path):
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run
        from repro.core.experiments.configuration import configuration_task

        plan = Plan("perf-manifest-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        traces = []
        with obs.tracing(obs.Tracer(on_finish=traces.append)):
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                run(plan, config=config)
        with RunStore(tmp_path / "store") as store:
            reloaded = store.manifests()[-1]
        profile = Trace.from_dict(reloaded.trace).profile()
        assert profile == traces[0].profile()
        assert profile.calls("generate") == 1


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(src)
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestCLI:
    def test_report_renders_saved_profile(self, tmp_path):
        def body():
            with obs.span("generate"):
                pass

        path = tmp_path / "profile.json"
        path.write_text(json.dumps(traced(body).profile().as_dict()))
        proc = run_cli(["report", str(path)])
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_report_renders_run_manifest_with_recorded_profile(self, tmp_path):
        from repro.core.experiments.configuration import configuration_task
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run

        plan = Plan("perf-cli-manifest")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with obs.tracing():
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                run(plan, config=config)
        manifest_path = next((tmp_path / "store" / "manifests").glob("*.json"))
        proc = run_cli(["report", str(manifest_path)])
        assert proc.returncode == 0
        assert "run manifest" in proc.stdout
        assert "perf-cli-manifest" in proc.stdout
        assert "read-LRU" in proc.stdout
        # the phase profile of the run's recorded trace renders below it
        assert "phase profile (recorded with the run)" in proc.stdout
        assert "\ngenerate " in proc.stdout
        assert "\n  unit " in proc.stdout

    def test_missing_profile_is_a_clean_error(self, tmp_path):
        proc = run_cli(["report", str(tmp_path / "absent.json")])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_command_rejected(self):
        proc = run_cli(["defrag"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
