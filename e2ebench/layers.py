"""Per-layer attribution: timing wrappers around each layer's public calls.

A :class:`LayerTrace` records one span per wrapped call — name, duration
and the share of it that nested wrapped calls cover — so every layer gets
a call count, inclusive seconds and self seconds (its span minus its
child spans).  :func:`installed` patches the wrappers in *where each name
is looked up*: a module that bound a function at import time
(``repro.llm.simulated`` binds ``calibrate`` and ``local_recalibrate``,
``repro.llm.calibration`` binds ``bleu_compiled``) is patched in that
module, methods are patched on their class.  Leaving the context
restores every original object exactly.

The wrappers record only calls made on the thread that installed them;
the benchmark drives every workload from one thread (serial executor, no
scoring pool), so nothing is lost, and a stray worker thread cannot
corrupt the span stack.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, NamedTuple

#: RunStats fields summed into ``runtime.*`` (metric name -> field)
RUN_FIELDS = {
    "units": "total_units",
    "generated": "generated",
    "cache_hits": "cache_hits",
    "deduplicated": "deduplicated",
    "scores_computed": "scores_computed",
    "score_hits": "score_hits",
    "units_failed": "units_failed",
    "read_lru_hits": "read_lru_hits",
    "read_lru_misses": "read_lru_misses",
    "bytes_read": "bytes_read",
}

#: span names whose per-call durations are kept for quantiles
SAMPLED = frozenset({"llm.generate", "serve.client.request"})


class LayerTrace:
    """Spans and counters recorded by the installed wrappers."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()  # work counters fed by hooks
        self.run_stats: list[Any] = []  # RunStats of every runtime.run call
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._open: set[str] = set()
        self._thread = threading.get_ident()

    def records(self, group: str) -> bool:
        """Whether a call into ``group`` starts a new span right now.

        A call nested inside an open span of the same group (a disk score
        cache filling its in-memory front, say) is part of that span, and
        calls from other threads are not recorded.
        """
        return group not in self._open and threading.get_ident() == self._thread

    def call(self, name: str, group: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        frame = [name, 0.0]
        self._stack.append(frame)
        self._open.add(group)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self._open.discard(group)
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            if name in SAMPLED:
                self.samples[name].append(elapsed)

    def run_totals(self) -> dict[str, int]:
        """Exact sums of the program's own RunStats counters."""
        return {
            metric: sum(getattr(stats, attr) for stats in self.run_stats)
            for metric, attr in RUN_FIELDS.items()
        }


# -- hooks: (trace, args, kwargs, result, before-state) ------------------------


def _after_run(trace: LayerTrace, args, kwargs, result, _state) -> None:
    trace.run_stats.append(result.stats)


def _before_curve(args, kwargs):
    curve = kwargs.get("curve")
    return curve.scores_computed if curve is not None else 0


def _after_calibrate(trace: LayerTrace, args, kwargs, result, before) -> None:
    curve = kwargs.get("curve")
    if curve is not None:
        trace.counts["llm.depths_scored"] += curve.scores_computed - before


def _after_recalibrate(trace: LayerTrace, args, kwargs, result, before) -> None:
    curve = kwargs.get("curve")
    if curve is None:
        return
    scored = curve.scores_computed - before
    trace.counts["llm.depths_scored"] += scored
    # a fresh trial curve scores at most the window; more means the
    # full-scan fallback ran
    ops = args[1] if len(args) > 1 else kwargs["ops"]
    center = kwargs["center"]
    window = kwargs.get("window", 8)
    span = min(len(ops), center + window) - max(0, center - window) + 1
    if scored > span:
        trace.counts["llm.recalibrate.fallbacks"] += 1


def _counting(counter: str, size: Callable[[tuple, dict], int]):
    def hook(trace: LayerTrace, args, kwargs, result, _state) -> None:
        trace.counts[counter] += size(args, kwargs)

    return hook


class Site(NamedTuple):
    """One lookup site: ``owner.attr`` is replaced by a wrapper named ``name``.

    Calls nested inside an open span of the same ``group`` (default: the
    span name) belong to that span and are not recorded again.
    """

    module: str
    owner: str | None  # class name inside the module, or None for a module attr
    attr: str
    name: str
    before: Callable | None = None
    after: Callable | None = None
    group: str | None = None


def _first_len(args, kwargs) -> int:
    return len(args[1])  # (self, keys/generations/requests, ...)


SITES = (
    # runtime: the runners look `run` up in three places
    Site("repro.runtime", None, "run", "runtime.run", after=_after_run),
    Site("repro.core.experiments.prompt_sensitivity", None, "run", "runtime.run",
         after=_after_run),
    Site("repro.core.experiments.fewshot", None, "run", "runtime.run", after=_after_run),
    *(
        Site(module, cls, method, f"runtime.result_cache.{method}")
        for module, cls in (
            ("repro.runtime.cache", "InMemoryResultCache"),
            ("repro.persist.store", "DiskResultCache"),
            ("repro.serve.client", "RemoteResultCache"),
        )
        for method in ("get_many", "put_many")
    ),
    *(
        Site(module, cls, method, f"runtime.score_cache.{method}",
             group="runtime.score_cache")
        for module, cls in (
            ("repro.runtime.cache", "ScoreCache"),
            ("repro.persist.store", "DiskScoreCache"),
            ("repro.serve.client", "RemoteScoreCache"),
        )
        for method in ("get", "put")
    ),
    # llm
    Site("repro.llm.simulated", "SimulatedModel", "generate", "llm.generate"),
    Site("repro.llm.simulated", None, "calibrate", "llm.calibrate",
         before=_before_curve, after=_after_calibrate),
    Site("repro.llm.simulated", None, "local_recalibrate", "llm.recalibrate",
         before=_before_curve, after=_after_recalibrate),
    # metrics
    Site("repro.llm.calibration", None, "bleu_compiled", "metrics.bleu_compiled"),
    Site("repro.metrics.kernels", None, "bleu_compiled", "metrics.bleu_compiled"),
    Site("repro.metrics.kernels", None, "chrf_compiled", "metrics.chrf_compiled"),
    Site("repro.llm.simulated", None, "compile_reference", "metrics.compile_reference"),
    Site("repro.llm.calibration", None, "compile_reference", "metrics.compile_reference"),
    Site("repro.core.scorers", None, "compile_reference", "metrics.compile_reference"),
    Site("repro.core.scorers", "CodeSimilarityScorer", "__call__", "metrics.scorer"),
    Site("repro.core.scorers", "CodeSimilarityScorer", "score_batch", "metrics.score_batch",
         after=_counting("metrics.score_batch.hyps", _first_len)),
    # persist
    Site("repro.persist.store", "RunStore", "__init__", "persist.open"),
    Site("repro.persist.store", "RunStore", "get_generations", "persist.get_generations",
         after=_counting("persist.get_generations.keys", _first_len)),
    Site("repro.persist.store", "RunStore", "record_run", "persist.record_run"),
    Site("repro.serve.client", "RemoteRunStore", "record_run", "persist.record_run"),
    Site("repro.persist.manifest", "RunManifest", "from_payload", "persist.manifest_parse"),
    # serve (client side; the server side comes from its metrics op)
    Site("repro.serve.client", "StoreClient", "request_many", "serve.client.request",
         after=_counting("serve.client.frames", _first_len)),
    Site("repro.runtime.faults", "RetryPolicy", "delay", "serve.client.retry"),
)


def _wrapper(trace: LayerTrace, site: Site, fn: Callable) -> Callable:
    group = site.group or site.name

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not trace.records(group):
            return fn(*args, **kwargs)
        state = site.before(args, kwargs) if site.before is not None else None
        result = trace.call(site.name, group, fn, args, kwargs)
        if site.after is not None:
            site.after(trace, args, kwargs, result, state)
        return result

    return wrapped


@contextlib.contextmanager
def installed(trace: LayerTrace, names: frozenset[str] | None = None) -> Iterator[LayerTrace]:
    """Patch every site (or those whose span is in ``names``) for the block."""
    restore: list[tuple[object, str, object, bool]] = []
    try:
        for site in SITES:
            if names is not None and site.name not in names:
                continue
            module = importlib.import_module(site.module)
            owner = module if site.owner is None else getattr(module, site.owner)
            if site.owner is None:
                original, own = getattr(owner, site.attr), True
                fn = original
            else:
                own = site.attr in vars(owner)
                original = vars(owner)[site.attr] if own else getattr(owner, site.attr)
                fn = original.__func__ if isinstance(original, staticmethod) else original
            wrapped = _wrapper(trace, site, fn)
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, site.attr, wrapped)
            restore.append((owner, site.attr, original, own))
        yield trace
    finally:
        for owner, attr, original, own in reversed(restore):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _quantile_ms(samples: list[float], q: int) -> float:
    """The ``q``-th percentile of ``samples`` in milliseconds (0 when empty)."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(trace: LayerTrace) -> dict[str, float]:
    """The per-layer metrics one traced pass attributes (sweeps and server aside)."""
    runs = trace.run_totals()
    c, s, t, n = trace.calls, trace.self_s, trace.total_s, trace.counts
    generated = c["llm.generate"]
    lru = runs["read_lru_hits"] + runs["read_lru_misses"]
    out: dict[str, float] = {
        "runtime.run.calls": c["runtime.run"],
        "runtime.run.self_s": s["runtime.run"],
        **{f"runtime.{metric}": runs[metric] for metric in (
            "units", "generated", "cache_hits", "deduplicated",
            "scores_computed", "score_hits",
        )},
        "runtime.result_cache.get_many.s": t["runtime.result_cache.get_many"],
        "runtime.result_cache.put_many.s": t["runtime.result_cache.put_many"],
        "runtime.score_cache.get.calls": c["runtime.score_cache.get"],
        "runtime.score_cache.get.s": t["runtime.score_cache.get"],
        "runtime.score_cache.put.s": t["runtime.score_cache.put"],
        "llm.generate.calls": generated,
        "llm.generate.self_s": s["llm.generate"],
        "llm.generate.ms_p50": _quantile_ms(trace.samples["llm.generate"], 50),
        "llm.generate.ms_p95": _quantile_ms(trace.samples["llm.generate"], 95),
        "llm.calibrate.calls": c["llm.calibrate"],
        "llm.calibrate.s": t["llm.calibrate"],
        "llm.recalibrate.calls": c["llm.recalibrate"],
        "llm.recalibrate.s": t["llm.recalibrate"],
        "llm.recalibrate.fallback_frac": (
            n["llm.recalibrate.fallbacks"] / c["llm.recalibrate"]
            if c["llm.recalibrate"] else 0.0
        ),
        "llm.depths_scored": n["llm.depths_scored"],
        "llm.depths_per_generation": (
            n["llm.depths_scored"] / generated if generated else 0.0
        ),
        "metrics.bleu_compiled.calls": c["metrics.bleu_compiled"],
        "metrics.bleu_compiled.s": t["metrics.bleu_compiled"],
        "metrics.chrf_compiled.calls": c["metrics.chrf_compiled"],
        "metrics.chrf_compiled.s": t["metrics.chrf_compiled"],
        "metrics.score_batch.calls": c["metrics.score_batch"],
        "metrics.score_batch.hyps": n["metrics.score_batch.hyps"],
        "metrics.score_batch.s": t["metrics.score_batch"],
        "metrics.scorer.calls": c["metrics.scorer"],
        "metrics.scorer.s": t["metrics.scorer"],
        "metrics.compile_reference.calls": c["metrics.compile_reference"],
        "metrics.compile_reference.s": t["metrics.compile_reference"],
        "persist.open_s": t["persist.open"],
        "persist.get_generations.keys": n["persist.get_generations.keys"],
        "persist.get_generations.s": t["persist.get_generations"],
        "persist.bytes_read": runs["bytes_read"],
        "persist.read_lru_hit_ratio": runs["read_lru_hits"] / lru if lru else 0.0,
        "persist.record_run.calls": c["persist.record_run"],
        "persist.record_run.s": t["persist.record_run"],
        "persist.manifests_parsed": c["persist.manifest_parse"],
        "serve.client.requests": n["serve.client.frames"],
        "serve.client.request_ms_p50": _quantile_ms(trace.samples["serve.client.request"], 50),
        "serve.client.request_ms_p99": _quantile_ms(trace.samples["serve.client.request"], 99),
        "serve.client.wait_s": t["serve.client.request"],
        "serve.client.retries": c["serve.client.retry"],
    }
    return out


def reconcile(trace: LayerTrace) -> list[str]:
    """Wrapper counts that disagree with the program's own counters.

    A lookup site the patch list misses shows up here as a count
    mismatch instead of a silently low layer time.
    """
    runs = trace.run_totals()
    c = trace.calls
    problems = []
    checks = (
        ("llm.generate.calls", c["llm.generate"], "runtime.generated", runs["generated"]),
        ("runtime.score_cache.put.calls", c["runtime.score_cache.put"],
         "runtime.scores_computed", runs["scores_computed"]),
        ("runtime.score_cache.get.calls", c["runtime.score_cache.get"],
         "runtime.units - runtime.deduplicated", runs["units"] - runs["deduplicated"]),
        ("runtime.run.calls", c["runtime.run"], "RunStats recorded", len(trace.run_stats)),
    )
    for name, got, expected_name, expected in checks:
        if got != expected:
            problems.append(f"{name}={got} but {expected_name}={expected}")
    return problems
