"""Tests of the benchmark's own machinery: wrappers, reconciliation, metric lists."""

from __future__ import annotations

import importlib
import json
import pathlib

import pytest

from e2ebench.layers import SITES, LayerTrace, installed, layer_metrics, reconcile
from e2ebench.workloads import END_TO_END, PER_LAYER, server_deltas

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _snapshot_sites() -> dict[tuple, object]:
    """The object currently stored at every site (class dict entry or module attr)."""
    out = {}
    for site in SITES:
        module = importlib.import_module(site.module)
        if site.owner is None:
            out[site[:3]] = getattr(module, site.attr)
        else:
            out[site[:3]] = vars(getattr(module, site.owner)).get(site.attr)
    return out


def _tiny_sweep():
    from repro.core.experiments import run_configuration
    from repro.runtime import InMemoryResultCache, RunConfig, SerialExecutor

    config = RunConfig(executor=SerialExecutor(), cache=InMemoryResultCache())
    return run_configuration(("llama-3.3-70b",), ("adios2",), epochs=2, config=config)


def test_install_replaces_every_site_and_restores_the_originals():
    before = _snapshot_sites()
    with installed(LayerTrace()):
        during = _snapshot_sites()
        assert all(during[key] is not before[key] for key in before)
    after = _snapshot_sites()
    assert all(after[key] is before[key] for key in before)


def test_originals_are_restored_when_the_block_raises():
    before = _snapshot_sites()
    with pytest.raises(RuntimeError):
        with installed(LayerTrace()):
            raise RuntimeError("pass failed")
    assert all(_snapshot_sites()[key] is before[key] for key in before)


def test_restricted_install_touches_only_the_named_spans():
    before = _snapshot_sites()
    with installed(LayerTrace(), frozenset({"runtime.run"})):
        during = _snapshot_sites()
        changed = {key for key in before if during[key] is not before[key]}
    assert {key[0] for key in changed} == {
        "repro.runtime",
        "repro.core.experiments.prompt_sensitivity",
        "repro.core.experiments.fewshot",
    }


def test_traced_sweep_reconciles_with_the_programs_counters():
    trace = LayerTrace()
    with installed(trace):
        _tiny_sweep()
    assert reconcile(trace) == []
    layers = layer_metrics(trace)
    assert layers["runtime.run.calls"] == 1
    assert layers["llm.generate.calls"] == layers["runtime.generated"] == 2
    assert layers["metrics.scorer.calls"] == layers["runtime.scores_computed"]
    for name in trace.calls:
        assert 0 <= trace.self_s[name] <= trace.total_s[name] + 1e-9


def test_a_missed_lookup_site_fails_reconciliation():
    trace = LayerTrace()
    with installed(trace, frozenset({"runtime.run"})):
        _tiny_sweep()
    assert any(problem.startswith("llm.generate.calls=0") for problem in reconcile(trace))


def test_server_deltas_exclude_the_metrics_probe():
    def snapshot(ops):
        series = [
            {"labels": {"op": op}, "count": sum(counts), "sum": total, "max": 0.004,
             "buckets": [[0.001, counts[0]], [0.01, counts[1]], ["+Inf", 0]]}
            for op, counts, total in ops
        ]
        return {"metrics": [{"name": "repro_server_op_seconds", "series": series}]}

    before = snapshot([("get_records", (4, 0), 0.002), ("metrics", (1, 0), 0.0001)])
    after = snapshot([("get_records", (10, 0), 0.005), ("latest_manifest", (0, 2), 0.006),
                      ("metrics", (2, 0), 0.0002)])
    deltas = server_deltas(before, after)
    assert deltas["serve.server.ops"] == 8
    assert deltas["serve.server.latest_manifest.s"] == pytest.approx(0.006)
    assert 0 < deltas["serve.server.op_ms_p50"] <= 1.0
    assert 1.0 < deltas["serve.server.op_ms_p99"] <= 10.0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
