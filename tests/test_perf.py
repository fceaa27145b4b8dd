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
from repro.obs import PhaseProfile, PhaseTotals, Profiler


class TestSpans:
    def test_span_without_profiler_is_a_noop(self):
        assert obs.active_profiler() is None
        with obs.span("anything"):
            pass  # must not raise, must not record anywhere

    def test_profiling_records_and_restores(self):
        with obs.profiling() as prof:
            assert obs.active_profiler() is prof
            with obs.span("alpha"):
                time.sleep(0.002)
        assert obs.active_profiler() is None
        profile = prof.snapshot()
        assert profile.calls("alpha") == 1
        assert profile.total_s("alpha") >= 0.002

    def test_spans_nest_into_paths(self):
        with obs.profiling() as prof:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        profile = prof.snapshot()
        assert profile.calls("outer") == 1
        assert profile.calls("outer/inner") == 2
        assert "inner" not in profile.phases  # only the nested path exists

    def test_nested_profiling_shadows_and_restores(self):
        with obs.profiling() as outer:
            with obs.profiling() as inner:
                assert obs.active_profiler() is inner
                with obs.span("x"):
                    pass
            assert obs.active_profiler() is outer
        assert inner.snapshot().calls("x") == 1
        assert outer.snapshot().calls("x") == 0

    def test_threads_aggregate_into_one_profiler(self):
        prof = Profiler()

        def work():
            for _ in range(50):
                with prof.span("worker"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert prof.snapshot().calls("worker") == 200

    def test_thread_nesting_is_per_thread(self):
        """A span opened in one thread never nests under another's."""
        prof = Profiler()
        inside = threading.Event()
        release = threading.Event()

        def outer_holder():
            with prof.span("held"):
                inside.set()
                release.wait(timeout=5)

        t = threading.Thread(target=outer_holder)
        t.start()
        inside.wait(timeout=5)
        with prof.span("independent"):
            pass
        release.set()
        t.join()
        profile = prof.snapshot()
        assert profile.calls("independent") == 1
        assert profile.calls("held/independent") == 0

    def test_record_folds_external_timings(self):
        prof = Profiler()
        prof.record("external", 1.5, calls=3)
        prof.record("external", 0.5)
        totals = prof.snapshot().phases["external"]
        assert totals.calls == 4
        assert totals.total_s == pytest.approx(2.0)
        assert totals.max_s == pytest.approx(1.5)

    def test_reset(self):
        prof = Profiler()
        with prof.span("x"):
            pass
        prof.reset()
        assert not prof.snapshot()


class TestPhaseProfile:
    def test_subtract_gives_the_delta(self):
        prof = Profiler()
        with prof.span("phase"):
            pass
        before = prof.snapshot()
        with prof.span("phase"):
            pass
        with prof.span("fresh"):
            pass
        delta = prof.snapshot().subtract(before)
        assert delta.calls("phase") == 1
        assert delta.calls("fresh") == 1

    def test_merged_sums(self):
        a = PhaseProfile({"p": PhaseTotals(calls=1, total_s=1.0, max_s=1.0)})
        b = PhaseProfile({"p": PhaseTotals(calls=2, total_s=0.5, max_s=0.4),
                          "q": PhaseTotals(calls=1, total_s=0.1, max_s=0.1)})
        merged = a.merged(b)
        assert merged.phases["p"] == PhaseTotals(calls=3, total_s=1.5, max_s=1.0)
        assert merged.calls("q") == 1

    def test_dict_roundtrip(self):
        prof = Profiler()
        with prof.span("a"):
            with prof.span("b"):
                pass
        profile = prof.snapshot()
        assert PhaseProfile.from_dict(profile.as_dict()) == profile

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(HarnessError):
            PhaseProfile.from_dict({"nope": 1})
        with pytest.raises(HarnessError):
            PhaseProfile.from_dict({"phases": {"p": {"calls": "x"}}})


class TestReport:
    def test_render_contains_phases_and_shares(self):
        prof = Profiler()
        with prof.span("generate"):
            with prof.span("store-io"):
                pass
        with prof.span("score"):
            pass
        text = obs.render_profile(prof.snapshot())
        assert "generate" in text and "score" in text
        assert "store-io" in text  # nested child rendered under its parent
        assert "share" in text

    def test_render_empty(self):
        assert "no phases" in obs.render_profile(PhaseProfile({}))

    def test_load_profile_accepts_wrapper_and_bare(self, tmp_path):
        prof = Profiler()
        with prof.span("x"):
            pass
        profile = prof.snapshot()
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
    def test_run_attaches_per_run_profile(self):
        from repro.core.experiments.configuration import configuration_task
        from repro.runtime import Plan, run

        plan = Plan("perf-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with obs.profiling():
            outcome = run(plan)
        profile = outcome.stats.profile
        assert profile is not None
        assert profile.calls("generate") == 1
        # score-cache consultation + assembly: two score spans per run
        assert profile.calls("score") == 2
        assert profile.calls("cache-get") == 1
        # without a profiler the field stays None (and costs nothing)
        assert run(plan).stats.profile is None

    def test_store_io_phases_nest_under_cache_phases(self, tmp_path):
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run
        from repro.core.experiments.configuration import configuration_task

        plan = Plan("perf-store-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with obs.profiling() as prof:
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                run(plan, config=config)
        profile = prof.snapshot()
        assert profile.calls("cache-put/store-io/append") >= 1
        assert profile.calls("cache-get/store-io/read") >= 1

    def test_profile_survives_manifest_roundtrip(self, tmp_path):
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run
        from repro.core.experiments.configuration import configuration_task

        plan = Plan("perf-manifest-test")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with obs.profiling():
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                outcome = run(plan, config=config)
        reloaded = RunStore(tmp_path / "store").manifests()[-1]
        assert reloaded.stats.profile == outcome.stats.profile
        assert reloaded.stats.profile.calls("generate") == 1


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
        prof = Profiler()
        with prof.span("generate"):
            pass
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(prof.snapshot().as_dict()))
        proc = run_cli(["report", str(path)])
        assert proc.returncode == 0
        assert "generate" in proc.stdout

    def test_report_renders_run_manifest_with_recorded_profile(self, tmp_path):
        from repro.core.experiments.configuration import configuration_task
        from repro.persist import RunStore
        from repro.runtime import Plan, RunConfig, run

        plan = Plan("perf-cli-manifest")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with obs.profiling():
            with RunStore(tmp_path / "store") as store:
                config = RunConfig(store=store)
                run(plan, config=config)
        manifest_path = next((tmp_path / "store" / "manifests").glob("*.json"))
        proc = run_cli(["report", str(manifest_path)])
        assert proc.returncode == 0
        assert "run manifest" in proc.stdout
        assert "perf-cli-manifest" in proc.stdout
        assert "read-LRU" in proc.stdout
        # the per-run profile recorded in the manifest renders below it
        assert "phase profile (recorded with the run)" in proc.stdout
        assert "generate" in proc.stdout

    def test_missing_profile_is_a_clean_error(self, tmp_path):
        proc = run_cli(["report", str(tmp_path / "absent.json")])
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_command_rejected(self):
        proc = run_cli(["defrag"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
