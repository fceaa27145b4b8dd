"""The runtime entry point: plan → (cache, dedup) → execute → score.

:func:`run` is the single funnel every evaluation in the repository goes
through.  It looks each work unit up in the result cache (one batched
``get_many``), deduplicates identical generations within the run, hands
only the genuinely new units — in plan order — to the executor, scores
every unit against its own target behind a :class:`~repro.runtime.cache.ScoreCache` (identical
(generation, target, scorer) triples are scored once), and reassembles
the plan's evaluation results.

Scores are computed after execution, one scorer call per score-cache
miss; :class:`~repro.core.scorers.CodeSimilarityScorer` compiles each
target once (``compile_reference`` is memoized), so repeated targets
only pay for the hypothesis side.

:class:`~repro.stats.RunStats` records how much work the model layer *and* the
metric layer actually did, which is what the cache and scaling tests
assert on.  When a :mod:`repro.obs` tracer is active the run's spans
(cache-get / generate / cache-put / score, with nested unit and
store-io spans) form its trace, which lands on the run manifest; the
phase breakdown is :meth:`~repro.obs.Trace.profile` of that trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping

from repro.core.task import EvalResult
from repro.errors import HarnessError
from repro.obs import active_tracer, span
from repro.stats import RunStats

if TYPE_CHECKING:  # repro.persist builds on repro.runtime, not vice versa
    from repro.persist import RunManifest

from repro.runtime.cache import ScoreCache
from repro.runtime.config import RunConfig
from repro.runtime.executors import SerialExecutor
from repro.runtime.faults import (
    FailedGeneration,
    FaultState,
    UnitFailure,
    fault_scope,
)
from repro.runtime.plan import EvalSpec, Plan
from repro.runtime.units import Generation, UnitResult, WorkUnit


def score_key(unit: WorkUnit, target_hash: str) -> Hashable:
    """Memoization key for one unit's score.

    (generation key, target hash, scorer fingerprint): the generation
    key pins the completion, the target hash pins what it is compared
    against, and the scorer fingerprint pins *how* — two tasks sharing
    a prompt and target but scoring differently never collide.  Scorers
    may expose a ``fingerprint`` attribute; otherwise the scorer object
    itself is the fingerprint (the key's reference keeps it alive, so
    its identity cannot be recycled while cached).  Unhashable
    fingerprint-less scorers fall back to ``id()`` — such a scorer must
    outlive any :class:`~repro.runtime.cache.ScoreCache` shared across
    runs.
    """
    scorer: Callable = unit.scorer
    fingerprint = getattr(scorer, "fingerprint", None)
    if fingerprint is not None:
        try:
            hash(fingerprint)
        except TypeError:
            fingerprint = None  # unusable fingerprint: key on the scorer itself
    if fingerprint is None:
        try:
            hash(scorer)
            fingerprint = scorer
        except TypeError:
            fingerprint = id(scorer)
    return (unit.key, target_hash, fingerprint)


@dataclass
class RunResult:
    """Executed plan: per-unit results plus reassembly helpers."""

    plan: Plan
    results: Mapping[str, UnitResult]
    stats: RunStats
    manifest: "RunManifest | None" = None  # recorded when a store was used
    failures: Mapping[str, UnitFailure] = None  # uid -> quarantined failure
    on_failure: str = "raise"  # the run's FaultPolicy disposition

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = {}

    def eval_result(self, spec: EvalSpec) -> EvalResult:
        """The :class:`EvalResult` for one ``add_eval`` handle.

        An eval whose units were quarantined by the fault policy raises
        :class:`~repro.errors.UnitFailedError` here (``isolate`` mode)
        or silently drops the failed epochs/samples (``skip`` mode).
        """
        return spec.assemble(
            self.results,
            failures=self.failures,
            skip_failed=self.on_failure == "skip",
        )

    def __getitem__(self, uid: str) -> UnitResult:
        return self.results[uid]


def run(
    plan: Plan,
    *,
    config: RunConfig | None = None,
) -> RunResult:
    """Execute every unit of ``plan`` and score it against its target.

    See :func:`_run_impl` for the execution pipeline itself; this
    wrapper owns the run's **distributed trace**: when a
    :func:`repro.obs.tracing` tracer is active, the run opens its own
    trace (``run:<plan name>``), every span inside — including spans
    folded back from the remote store server — is recorded with
    ids/parents/wall-clock placement, and the finished trace lands on
    the run's manifest (and its id on :attr:`RunStats.trace_id`).  A run
    started while another trace is already open simply folds its spans
    into the outer trace.  Telemetry never changes results: grids are
    bit-identical with tracing on or off.
    """
    tracer = active_tracer()
    handle = tracer.begin_trace(f"run:{plan.name}") if tracer is not None else None
    if handle is None:
        return _run_impl(plan, config=config)
    finished: list = []

    def finish_trace():
        trace = tracer.end_trace(handle)
        finished.append(trace)
        return trace

    try:
        return _run_impl(plan, config=config, _finish_trace=finish_trace)
    finally:
        if not finished:  # the run raised before its trace was sealed
            tracer.end_trace(handle)


def _run_impl(
    plan: Plan,
    *,
    config: RunConfig | None = None,
    _finish_trace: Callable[[], Any] | None = None,
) -> RunResult:
    """The execution pipeline behind :func:`run`.

    Results are independent of the executor choice: seeds live inside
    the units, and generations are keyed by content, so serial and
    threaded execution (with any mix of cold/warm cache) produce
    bit-identical output.

    Every knob is read off ``config``, a
    :class:`~repro.runtime.config.RunConfig` (default: all ``None``).
    ``executor`` runs the units that miss the cache, in plan order
    (default: serial).  ``score_cache`` memoizes scores across runs;
    when omitted, a fresh per-run cache still collapses the metric work
    of deduplicated units.

    ``store`` plugs in a durable :class:`~repro.persist.RunStore`: unless
    overridden by an explicit ``cache``/``score_cache``, generations and
    scores are read from and written through to disk (shared with every
    process pointed at the same directory), and the run is recorded as a
    :class:`~repro.persist.RunManifest` — so an interrupted or repeated
    sweep re-generates only the units the store has never seen, and
    ``RunResult.manifest`` documents exactly how each run was satisfied.

    Score-cache misses are scored after execution, one scorer call per
    miss.  Quarantined generations are never scored.

    ``faults`` installs a :class:`~repro.runtime.faults.FaultPolicy` for
    the execution phase: every executor gains the same deterministic
    retry/backoff, per-unit deadlines and a run-shared retry budget, and
    — with ``on_failure="isolate"``/``"skip"`` — units that exhaust
    their chances are quarantined as per-uid
    :class:`~repro.runtime.faults.UnitFailure` records instead of
    aborting the sweep.  Failures are never cached, so re-running the
    same plan against the same store re-executes exactly the quarantined
    units; ``resume_from`` makes that linkage explicit by validating the
    prior run's manifest (same plan fingerprint) and recording it as
    this run's predecessor.
    """
    config = config if config is not None else RunConfig()
    executor, cache, score_cache = config.executor, config.cache, config.score_cache
    store, faults, resume_from = config.store, config.faults, config.resume_from
    started_unix = time.time()
    started = time.perf_counter()
    if resume_from is not None:
        if store is None:
            raise HarnessError(
                "resume_from requires a store (the failure set to resume "
                "lives in the prior run's manifest)"
            )
        from repro.persist.manifest import plan_fingerprint

        prior = store.manifest(resume_from)
        if prior is None:
            raise HarnessError(
                f"store at {store.root} has no recorded run {resume_from!r}"
            )
        if prior.plan_fingerprint != plan_fingerprint(plan):
            raise HarnessError(
                f"run {resume_from!r} executed a different plan "
                f"(fingerprint {prior.plan_fingerprint[:12]}…); resume "
                "must replay the same plan against the same store"
            )
    fault_state = FaultState(faults) if faults is not None else None
    if store is not None:
        if cache is None:
            cache = store.result_cache
        if score_cache is None:
            score_cache = store.score_cache()
    executor = executor or SerialExecutor()
    score_cache = score_cache if score_cache is not None else ScoreCache()
    units = plan.units

    # a disk-backed cache exposes cheap read-LRU counters; the deltas
    # over this run land in RunStats (and therefore in the manifest)
    read_stats_fn = getattr(cache, "read_stats", None) if cache is not None else None
    reads_before = read_stats_fn() if read_stats_fn is not None else None

    # -- result-cache lookup + in-run dedup ----------------------------------
    generations: dict[str, Generation | None] = {}
    pending = []  # first unit per generation key that missed the cache
    cache_hits = 0
    with span("cache-get"):
        lookup_units = []  # first unit per distinct generation key
        for unit in units:
            if unit.key not in generations:
                generations[unit.key] = None  # claimed; filled below
                lookup_units.append(unit)
        hits: dict[str, Generation] = {}
        if cache is not None:
            # one batched lookup for the whole plan (the disk backend
            # sorts the reads by segment offset)
            hits = cache.get_many([unit.key for unit in lookup_units])
        for unit in lookup_units:
            hit = hits.get(unit.key)
            if hit is not None:
                generations[unit.key] = hit
                cache_hits += 1
            else:
                pending.append(unit)

    # -- score planning ------------------------------------------------------
    # A unit's score key needs only the generation key, the target and
    # the scorer — all known before execution — so score-cache hits are
    # resolved up front.
    target_hashes: dict[str, str] = {}  # per-run memo of target digests
    unit_skeys: dict[str, Hashable] = {}  # uid -> score key
    skey_units: dict[Hashable, WorkUnit] = {}  # first unit per score key
    for unit in units:
        target_hash = target_hashes.get(unit.target)
        if target_hash is None:
            # surrogatepass, as in generation_key: lone-surrogate targets
            # are scored, so they must hash too
            target_hash = target_hashes[unit.target] = hashlib.sha256(
                unit.target.encode("utf-8", "surrogatepass")
            ).hexdigest()
        skey = score_key(unit, target_hash)
        unit_skeys[unit.uid] = skey
        if skey not in skey_units:
            skey_units[skey] = unit

    scores: dict[Hashable, object] = {}  # score key -> score
    misses: list[Hashable] = []  # score keys to compute once generated
    with span("score"):  # cache consultation is part of the scoring phase
        # one batched read of every durable score the gets below will
        # ask for (a no-op for the in-memory cache)
        score_cache.prefetch(skey_units)
        for skey in skey_units:
            hit = score_cache.get(skey)
            if hit is not None:
                scores[skey] = hit
            else:
                misses.append(skey)

    # -- execution -----------------------------------------------------------
    generation_seconds = 0.0
    failed: dict[str, FailedGeneration] = {}  # generation key -> failure
    ok_units: list = []  # executed units that actually produced a generation
    if pending:
        scope = (
            fault_scope(fault_state)
            if fault_state is not None
            else contextlib.nullcontext()
        )
        with scope, span("generate"):
            produced = executor.execute(pending)
        failed = {
            key: gen
            for key, gen in produced.items()
            if isinstance(gen, FailedGeneration)
        }
        missing = [u.uid for u in pending if u.key not in produced]
        if missing:
            raise HarnessError(
                f"executor {executor!r} returned no generation for units {missing}"
            )
        generations.update(produced)
        ok_units = (
            [unit for unit in pending if unit.key not in failed]
            if failed
            else list(pending)
        )
        for unit in ok_units:
            generation_seconds += produced[unit.key].elapsed_s
        if cache is not None and ok_units:
            # quarantined failures never enter the cache: the next run
            # against the same cache/store re-executes exactly them
            with span("cache-put"):
                cache.put_many([produced[unit.key] for unit in ok_units])

    # -- scoring + assembly --------------------------------------------------
    # failures become per-uid records (deduplicated units sharing a
    # failed generation key all fail together) and are excluded from
    # scoring; EvalSpec.assemble surfaces them per evaluation
    failures: dict[str, UnitFailure] = {}
    if failed:
        for unit in units:
            failure = failed.get(unit.key)
            if failure is not None:
                failures[unit.uid] = failure.unit_failure(unit.uid)
    # one scorer call per score-cache miss of a successful generation
    scores_computed = 0
    with span("score"):
        for skey in misses:
            unit = skey_units[skey]
            if unit.key in failed:
                continue
            score = unit.scorer(generations[unit.key].completion, unit.target)
            score_cache.put(skey, score)
            scores[skey] = score
            scores_computed += 1

    results = {
        unit.uid: UnitResult(
            uid=unit.uid,
            generation=generations[unit.key],
            score=scores[unit_skeys[unit.uid]],
        )
        for unit in units
        if unit.uid not in failures
    }

    read_lru_hits = read_lru_misses = bytes_read = 0
    if reads_before is not None:
        reads_after = read_stats_fn()
        read_lru_hits = reads_after["read_lru_hits"] - reads_before["read_lru_hits"]
        read_lru_misses = (
            reads_after["read_lru_misses"] - reads_before["read_lru_misses"]
        )
        bytes_read = reads_after["bytes_read"] - reads_before["bytes_read"]

    unique_keys = len(generations)
    # seal the run's distributed trace (if any) before stats are frozen,
    # so the trace id travels with the stats and the span set is complete
    trace = _finish_trace() if _finish_trace is not None else None
    wall_seconds = time.perf_counter() - started
    stats = RunStats(
        total_units=len(units),
        generated=len(ok_units),
        cache_hits=cache_hits,
        deduplicated=len(units) - unique_keys,
        scores_computed=scores_computed,
        # every other result reused a score: from the score cache, or
        # one computed for an identical (generation, target, scorer)
        score_hits=len(results) - scores_computed,
        generation_seconds=generation_seconds,
        read_lru_hits=read_lru_hits,
        read_lru_misses=read_lru_misses,
        bytes_read=bytes_read,
        units_failed=len(failures),
        units_retried=fault_state.units_retried if fault_state is not None else 0,
        retry_seconds=fault_state.retry_seconds if fault_state is not None else 0.0,
        trace_id=trace.trace_id if trace is not None else None,
    )
    manifest = None
    if store is not None:
        manifest = store.record_run(
            plan=plan,
            stats=stats,
            executor=executor,
            cache=cache,
            started_unix=started_unix,
            wall_seconds=wall_seconds,
            failures=tuple(failures.values()),
            resumed_from=resume_from,
            trace=trace.as_dict() if trace is not None else None,
        )
    return RunResult(
        plan=plan,
        results=results,
        stats=stats,
        manifest=manifest,
        failures=failures,
        on_failure=faults.on_failure if faults is not None else "raise",
    )
