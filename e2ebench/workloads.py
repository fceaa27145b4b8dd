"""The workloads, each as one function of a :class:`Bench`.

Every workload follows the same shape: a set-up that prepares the state
its passes start from, untraced timed passes until ``--seconds`` have
elapsed (at least one), and — with ``--trace 1`` — one more pass with
the layer wrappers installed.  Every pass is checked: its output digest
must equal :data:`GOLDEN_DIGEST`, warm passes must generate nothing, and
a fill through the store server must leave exactly the plan's
generations and scores in a clean store.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.persist import RunStore
from repro.persist.manifest import make_run_id
from repro.runtime import RunConfig, SerialExecutor
from repro.serve import open_store

from e2ebench.layers import LayerTrace, installed, layer_metrics, reconcile
from e2ebench.plan import SWEEPS, run_plan, sweep_order
from e2ebench.server import ServerProcess

#: sha256 of the rendered tables, heatmaps and paper-vs-measured lines
GOLDEN_DIGEST = "786cff8e042f6fc93e26493c42d65be12929a921ae4795c98be0ef15bea5d326"
PLAN_UNITS = 560  # units over the seven sweeps
PLAN_GENERATIONS = 456  # distinct generations (and score records) among them
HISTORY_MANIFESTS = 500  # warm-remote: manifests on the shared store
SETUP_PROBES = 7  # cold-repro: extra fresh-interpreter start-ups timed
CHILD_TIMEOUT_S = 150.0

RUN_ONLY = frozenset({"runtime.run"})  # untraced passes only read RunStats

#: (name, unit, better, bound) — the user-visible metrics
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("bleu_mae", "points", "lower", 0.05),
    ("chrf_mae", "points", "lower", 0.05),
    ("bleu_max_err", "points", "lower", 0.05),
    ("chrf_max_err", "points", "lower", 0.05),
)

#: (name, unit, better) — per-layer attribution from the traced pass
PER_LAYER = (
    *((f"experiments.sweep_s.{name}", "s", "lower") for name in SWEEPS),
    ("runtime.run.calls", "count", "lower"),
    ("runtime.run.self_s", "s", "lower"),
    ("runtime.units", "count", "higher"),
    ("runtime.generated", "count", "lower"),
    ("runtime.cache_hits", "count", "higher"),
    ("runtime.deduplicated", "count", "higher"),
    ("runtime.scores_computed", "count", "lower"),
    ("runtime.score_hits", "count", "higher"),
    ("runtime.result_cache.get_many.s", "s", "lower"),
    ("runtime.result_cache.put_many.s", "s", "lower"),
    ("runtime.score_cache.get.calls", "count", "lower"),
    ("runtime.score_cache.get.s", "s", "lower"),
    ("runtime.score_cache.put.s", "s", "lower"),
    ("llm.generate.calls", "count", "lower"),
    ("llm.generate.self_s", "s", "lower"),
    ("llm.generate.ms_p50", "ms", "lower"),
    ("llm.generate.ms_p95", "ms", "lower"),
    ("llm.calibrate.calls", "count", "lower"),
    ("llm.calibrate.s", "s", "lower"),
    ("llm.recalibrate.calls", "count", "lower"),
    ("llm.recalibrate.s", "s", "lower"),
    ("llm.recalibrate.fallback_frac", "ratio", "lower"),
    ("llm.depths_scored", "count", "lower"),
    ("llm.depths_per_generation", "count", "lower"),
    ("llm.calib_share", "ratio", "lower"),
    ("metrics.bleu_compiled.calls", "count", "lower"),
    ("metrics.bleu_compiled.s", "s", "lower"),
    ("metrics.chrf_compiled.calls", "count", "lower"),
    ("metrics.chrf_compiled.s", "s", "lower"),
    ("metrics.score_batch.calls", "count", "lower"),
    ("metrics.score_batch.hyps", "count", "lower"),
    ("metrics.score_batch.s", "s", "lower"),
    ("metrics.scorer.calls", "count", "lower"),
    ("metrics.scorer.s", "s", "lower"),
    ("metrics.compile_reference.calls", "count", "lower"),
    ("metrics.compile_reference.s", "s", "lower"),
    ("persist.open_s", "s", "lower"),
    ("persist.get_generations.keys", "count", "lower"),
    ("persist.get_generations.s", "s", "lower"),
    ("persist.bytes_read", "bytes", "lower"),
    ("persist.read_lru_hit_ratio", "ratio", "higher"),
    ("persist.record_run.calls", "count", "lower"),
    ("persist.record_run.s", "s", "lower"),
    ("persist.manifests_parsed", "count", "lower"),
    ("persist.manifests_at_start", "count", "lower"),
    ("serve.client.requests", "count", "lower"),
    ("serve.client.request_ms_p50", "ms", "lower"),
    ("serve.client.request_ms_p99", "ms", "lower"),
    ("serve.client.wait_s", "s", "lower"),
    ("serve.client.retries", "count", "lower"),
    ("serve.server.ops", "count", "lower"),
    ("serve.server.op_ms_p50", "ms", "lower"),
    ("serve.server.op_ms_p99", "ms", "lower"),
    ("serve.server.latest_manifest.s", "s", "lower"),
    ("serve.server.cpu_s", "s", "lower"),
    ("reporting.render_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Report:
    """Samples and checks gathered over one workload run."""

    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    setup_once: float = 0.0  # one-time preparation, measured once
    setup_each: list[float] = field(default_factory=list)  # per-pass preparation
    fidelity: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def check_output(self, what: str, digest: str, fidelity: dict, runs: dict,
                     generated: int) -> None:
        """Digest, fidelity and unit accounting of one pass, timed or not."""
        self.check(digest == GOLDEN_DIGEST, f"{what}: output digest {digest[:12]}… "
                   f"differs from the golden {GOLDEN_DIGEST[:12]}…")
        if self.fidelity is None:
            self.fidelity = fidelity
        self.check(fidelity == self.fidelity, f"{what}: fidelity differs between passes")
        self.check(runs["units"] == PLAN_UNITS, f"{what}: {runs['units']} units, "
                   f"expected {PLAN_UNITS}")
        self.check(runs["generated"] == generated, f"{what}: generated "
                   f"{runs['generated']} units, expected {generated}")

    def add_pass(self, what: str, *, wall: float, cpu: float, rss_mb: float,
                 digest: str, fidelity: dict, runs: dict, generated: int) -> None:
        self.check_output(what, digest, fidelity, runs, generated)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.rss_mb.append(rss_mb)
        self.attempted += runs["units"]
        self.failed += runs["units_failed"]

    def end_to_end(self) -> dict[str, float]:
        """The user-visible metrics of this run.

        A pass's wall and CPU time are taken from the fastest pass of the
        run: on a shared host, slow spells of tens of seconds inflate
        every pass they overlap (warm passes by up to 2x), and the
        minimum over a run's passes is far steadier from run to run than
        their median.  Set-up is the one-time preparation plus the median
        per-pass preparation.
        """
        setup = self.setup_once
        if self.setup_each:
            setup += statistics.median(self.setup_each)
        return {
            "setup_s": setup,
            "wall_s": min(self.wall),
            "cpu_s": min(self.cpu),
            "peak_rss_mb": max(self.rss_mb),
            **{key: self.fidelity[key] for key in (
                "bleu_mae", "chrf_mae", "bleu_max_err", "chrf_max_err")},
        }


@dataclass
class Bench:
    """One benchmark invocation: where it runs and what it was asked for."""

    root: pathlib.Path  # the checkout
    work: pathlib.Path  # scratch space inside the checkout, removed afterwards
    out: pathlib.Path  # results directory (server logs are kept here)
    seed: int
    seconds: float
    trace: bool

    @property
    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(self.root / "src"), str(self.root)])
        return env

    def order(self, index: int) -> list[str]:
        return sweep_order(self.seed, index)

    def child(self, *args: str) -> tuple[dict, float]:
        """Run ``python -m e2ebench.cold`` once; its JSON and its set-up time."""
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "e2ebench.cold", *args],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold pass {args} failed ({proc.returncode}):\n"
                               f"{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        return out, out["ready"] - spawned

    def server(self, root: pathlib.Path) -> ServerProcess:
        return ServerProcess(root, self.out / "server.log", self.env, self.root)

    def passes(self, body: Callable[[int], None]) -> int:
        """Call ``body(i)`` for i = 0, 1, ... until ``--seconds`` have elapsed."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            body(index)
            index += 1
            if time.perf_counter() >= deadline:
                return index


def store_pass(target: str, order: list[str], traced: bool):
    """One warm plan pass in this process against the store ``target`` names.

    The timed region includes opening and closing the store.
    """
    trace = LayerTrace()
    cpu0 = time.process_time()
    started = time.perf_counter()
    with installed(trace, None if traced else RUN_ONLY):
        store = open_store(target)
        try:
            config = RunConfig(executor=SerialExecutor(), cache=store.result_cache,
                               store=store, store_url=target)
            result = run_plan(config, order)
        finally:
            store.close()
    wall = time.perf_counter() - started
    return result, trace, wall, time.process_time() - cpu0


def _count_manifests(store_root: pathlib.Path) -> int:
    manifests = store_root / "manifests"
    return len(list(manifests.glob("*.json"))) if manifests.is_dir() else 0


def _fold_traced(report: Report, layers: dict[str, float], sweep_s: dict[str, float],
                 render_s: float, wall: float, problems: list[str]) -> None:
    """Fold one traced pass's attribution and reconciliation into ``report``."""
    report.problems.extend(f"reconcile: {problem}" for problem in problems)
    layers.update({f"experiments.sweep_s.{name}": secs for name, secs in sweep_s.items()})
    layers["reporting.render_s"] = render_s
    layers["obs.traced_wall_s"] = wall
    layers["obs.trace_overhead"] = wall / statistics.median(report.wall)
    layers["llm.calib_share"] = (layers["llm.calibrate.s"] + layers["llm.recalibrate.s"]) / wall
    report.layers.update(layers)


def _fold_traced_pass(report: Report, result, trace: LayerTrace, wall: float) -> None:
    _fold_traced(report, layer_metrics(trace), result.sweep_s, result.render_s, wall,
                 reconcile(trace))


# -- server-side deltas --------------------------------------------------------


def _op_series(snapshot: dict) -> dict[str, dict]:
    for metric in snapshot["metrics"]:
        if metric["name"] == "repro_server_op_seconds":
            return {s["labels"]["op"]: s for s in metric["series"]}
    return {}


def _bucket_quantile(q: float, bounds: list[float], counts: list[int], top: float) -> float:
    """Linear interpolation inside the bucket holding rank ``q`` (seconds)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count and cumulative + count >= target:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else top
            return lo + (hi - lo) * (target - cumulative) / count
        cumulative += count
    return top


def server_deltas(before: dict, after: dict) -> dict[str, float]:
    """Server work between two ``metrics`` snapshots, excluding the probes."""
    old, new = _op_series(before), _op_series(after)
    ops = 0
    bounds: list[float] = []
    counts: list[int] = []
    top = 0.0
    latest_s = 0.0
    for op, series in new.items():
        if op == "metrics":
            continue
        prior = old.get(op)
        buckets = [count for _bound, count in series["buckets"]]
        if prior is not None:
            buckets = [a - b for a, b in zip(buckets, (c for _b, c in prior["buckets"]))]
        bounds = [float(bound) for bound, _count in series["buckets"][:-1]]
        counts = [a + b for a, b in zip(counts, buckets)] if counts else buckets
        ops += series["count"] - (prior["count"] if prior is not None else 0)
        top = max(top, series["max"])
        if op == "latest_manifest":
            latest_s = series["sum"] - (prior["sum"] if prior is not None else 0.0)
    return {
        "serve.server.ops": ops,
        "serve.server.op_ms_p50": _bucket_quantile(0.50, bounds, counts, top) * 1e3,
        "serve.server.op_ms_p99": _bucket_quantile(0.99, bounds, counts, top) * 1e3,
        "serve.server.latest_manifest.s": latest_s,
    }


def remote_pass(report: Report, srv: ServerProcess, order: list[str], traced: bool,
                what: str) -> None:
    """One timed warm pass against a running server; client plus server CPU."""
    probe = open_store(srv.url) if traced else None
    try:
        before = probe.metrics()["metrics"] if traced else None
        server_cpu0 = srv.cpu_s()
        result, trace, wall, cpu = store_pass(srv.url, order, traced)
        server_cpu = srv.cpu_s() - server_cpu0
        after = probe.metrics()["metrics"] if traced else None
    finally:
        if probe is not None:
            probe.close()
    runs = trace.run_totals()
    rss = _rss_mb() + srv.peak_rss_mb()
    if traced:
        report.check_output(what, result.digest, result.fidelity, runs, 0)
        _fold_traced_pass(report, result, trace, wall)
        deltas = server_deltas(before, after)
        report.layers.update(deltas)
        report.layers["serve.server.cpu_s"] = server_cpu
        client = report.layers["serve.client.requests"]
        report.check(client == deltas["serve.server.ops"],
                     f"reconcile: client sent {client} requests but the server "
                     f"handled {deltas['serve.server.ops']}")
    else:
        report.add_pass(what, wall=wall, cpu=cpu + server_cpu, rss_mb=rss,
                        digest=result.digest, fidelity=result.fidelity, runs=runs,
                        generated=0)


# -- workloads -------------------------------------------------------------------


def cold_repro(bench: Bench) -> Report:
    """The full plan in a fresh interpreter per pass, in-memory cache, no store."""
    report = Report()
    for _ in range(SETUP_PROBES):
        _out, setup = bench.child("--setup-only")
        report.setup_each.append(setup)

    def one(index: int) -> None:
        out, setup = bench.child("--order", ",".join(bench.order(index)))
        report.setup_each.append(setup)
        report.add_pass(f"pass {index}", wall=out["wall_s"], cpu=out["cpu_s"],
                        rss_mb=out["peak_rss_mb"], digest=out["digest"],
                        fidelity=out["fidelity"], runs=out["runs"],
                        generated=PLAN_GENERATIONS)

    count = bench.passes(one)
    if bench.trace:
        out, _setup = bench.child("--order", ",".join(bench.order(count)), "--trace")
        report.check_output("traced pass", out["digest"], out["fidelity"], out["runs"],
                            PLAN_GENERATIONS)
        _fold_traced(report, out["layers"], out["sweep_s"], out["render_s"], out["wall_s"],
                     out["problems"])
    return report


def warm_local(bench: Bench) -> Report:
    """Warm passes against an on-disk store, each from a copy of the filled one."""
    report = Report()
    template = bench.work / "store"
    started = time.perf_counter()
    fill, _setup = bench.child("--order", ",".join(bench.order(-1)), "--store", str(template))
    report.setup_once = time.perf_counter() - started
    report.check_output("fill", fill["digest"], fill["fidelity"], fill["runs"],
                        PLAN_GENERATIONS)
    expected = _count_manifests(template)
    report.check(expected == len(SWEEPS), f"fill recorded {expected} manifests")

    def one(index: int, traced: bool = False) -> None:
        dest = bench.work / f"pass-{index}"
        copied = time.perf_counter()
        shutil.copytree(template, dest)
        report.setup_each.append(time.perf_counter() - copied)
        try:
            at_start = _count_manifests(dest)
            report.check(at_start == expected, f"pass {index} started with "
                         f"{at_start} manifests, expected {expected}")
            result, trace, wall, cpu = store_pass(str(dest), bench.order(index), traced)
        finally:
            shutil.rmtree(dest)
        runs = trace.run_totals()
        if traced:
            report.check_output("traced pass", result.digest, result.fidelity, runs, 0)
            _fold_traced_pass(report, result, trace, wall)
            report.layers["persist.manifests_at_start"] = at_start
        else:
            report.add_pass(f"pass {index}", wall=wall, cpu=cpu, rss_mb=_rss_mb(),
                            digest=result.digest, fidelity=result.fidelity, runs=runs,
                            generated=0)

    count = bench.passes(one)
    if bench.trace:
        one(count, traced=True)
    return report


def add_history(shard: pathlib.Path, total: int) -> None:
    """Pad a store's manifests to ``total`` with earlier copies of its runs.

    Stands in for ~70 earlier reproductions against a shared store: the
    copies keep each sweep's plan fingerprint, so ``latest_manifest``
    parses every one of them.
    """
    store = RunStore(shard)
    try:
        recent = store.manifests()
        earliest = min(m.started_unix for m in recent)
        for i in range(total - len(recent)):
            manifest = recent[i % len(recent)]
            started = earliest - 60.0 * (total - i)
            store.put_manifest(dataclasses.replace(
                manifest, started_unix=started,
                run_id=make_run_id(started, manifest.plan_fingerprint)))
    finally:
        store.close()


def warm_remote(bench: Bench) -> Report:
    """Warm passes through a store server holding a 500-run manifest history."""
    report = Report()
    template = bench.work / "served"
    started = time.perf_counter()
    with bench.server(template) as srv:
        fill, _setup = bench.child("--order", ",".join(bench.order(-1)), "--store", srv.url)
        check = open_store(srv.url)
        try:
            stats, audit = check.stats(), check.verify()
        finally:
            check.close()
    report.check(stats.generations == stats.scores == PLAN_GENERATIONS,
                 f"fill left {stats.generations} generations and {stats.scores} "
                 f"scores on the server, expected {PLAN_GENERATIONS} of each")
    report.check(audit.clean, f"fill: server verify found {audit.problems}")
    add_history(template / "shard-00", HISTORY_MANIFESTS)
    report.setup_once = time.perf_counter() - started
    report.check_output("fill", fill["digest"], fill["fidelity"], fill["runs"],
                        PLAN_GENERATIONS)

    def one(index: int, traced: bool = False) -> None:
        dest = bench.work / f"pass-{index}"
        copied = time.perf_counter()
        shutil.copytree(template, dest)
        copy_s = time.perf_counter() - copied
        try:
            at_start = _count_manifests(dest / "shard-00")
            report.check(at_start == HISTORY_MANIFESTS, f"pass {index} started with "
                         f"{at_start} manifests, expected {HISTORY_MANIFESTS}")
            with bench.server(dest) as srv:
                report.setup_each.append(copy_s + srv.start_s)
                remote_pass(report, srv, bench.order(index), traced,
                            "traced pass" if traced else f"pass {index}")
        finally:
            shutil.rmtree(dest)
        if traced:
            report.layers["persist.manifests_at_start"] = at_start

    count = bench.passes(one)
    if bench.trace:
        one(count, traced=True)
    return report


WORKLOADS = {
    "cold-repro": cold_repro,
    "warm-local": warm_local,
    "warm-remote": warm_remote,
}
