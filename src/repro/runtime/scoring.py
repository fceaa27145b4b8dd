"""Pipelined scoring: overlap metric work with generation.

Scoring BLEU/ChrF is CPU-bound Python — it never overlaps anything
under the GIL, so even when an executor keeps many provider calls in
flight, every completed unit used to queue up behind a serial scoring
loop on the run thread.  :class:`ScoringPool` turns scoring into a
stage: the runner submits each (scorer, completion, target) triple as
soon as its generation exists, the pool computes it in a worker
*process* (real parallelism for the compiled BLEU/ChrF path), and the
runner collects the scores at assembly time — by which point most of
them finished while later generations were still being produced.

Determinism: a score is a pure function of (scorer, completion,
target); the compiled metrics engine is floating-point deterministic on
one platform, so pool-computed grids are bit-identical to inline ones —
``tests/test_scoring.py`` pins this across every executor.

Fallbacks keep the pool safe to enable anywhere:

* a scorer with no cross-process identity (a lambda extractor, a
  closure) cannot be pickled — detected once per scorer and computed
  inline instead, transparently;
* a broken pool (worker killed, pickling surprise at call time) retries
  the affected scores inline rather than failing the run.

The pool is lazy and persistent: workers start on the first submit and
are reused across runs (``close()`` or the context manager releases
them), so multi-sweep scripts pay process start-up once.

Two batching layers ride on top:

* :meth:`ScoringPool.submit_many` ships a whole unit-group —
  many completions against one target — as a few chunked worker calls
  instead of one IPC round trip per score.  The worker scores the group
  through :func:`repro.metrics.kernels.score_batch`, compiling the
  target and interning its kernel vocabularies once per chunk;
* :class:`AdaptiveScoringPool` chooses the worker count *per run* from
  :class:`~repro.runtime.schedule.ExpectedCostModel` EMAs of observed
  per-unit score cost vs generation cost — including zero workers
  (inline scoring) when the expected metric work is too small to pay
  for process round trips.  Cold start is inline: the first run
  measures, later runs offload.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import pickle
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.core.scorers import Score
from repro.errors import HarnessError
from repro.metrics.kernels import score_batch
from repro.obs import fold_remote_spans, make_span_dict, propagation_context, span
from repro.runtime.schedule import ExpectedCostModel

# ExpectedCostModel channel keys for the adaptive pool's two EMAs
SCORE_COST_KEY = "score-unit"
GENERATION_COST_KEY = "generation-unit"


def _score_task(scorer: Callable, completion: str, target: str) -> Score:
    """Worker-side body: one score, pure function of its arguments."""
    return scorer(completion, target)


def _score_batch_task(
    scorer: Callable, completions: Sequence[str], target: str
) -> list[Score]:
    """Worker-side body: one unit-group, compiled/interned once per call."""
    return score_batch(completions, target, scorer)


def _score_task_traced(
    scorer: Callable, completion: str, target: str, parent_id: str | None
) -> tuple[Score, dict]:
    """Traced worker body: the score plus a span dict for the parent.

    The span is timed on the worker's own wall clock and stamped with
    the worker pid; ``parent_id`` (the submitting thread's current span)
    links it into the run's trace when the handle folds it back.
    """
    start_unix = time.time()
    t0 = time.perf_counter()
    score = scorer(completion, target)
    return score, make_span_dict(
        "score-worker",
        parent_id=parent_id,
        start_unix=start_unix,
        duration_s=time.perf_counter() - t0,
    )


def _score_batch_task_traced(
    scorer: Callable, completions: Sequence[str], target: str, parent_id: str | None
) -> tuple[list[Score], dict]:
    """Traced worker body for one chunk: scores plus one chunk span."""
    start_unix = time.time()
    t0 = time.perf_counter()
    scores = score_batch(completions, target, scorer)
    return scores, make_span_dict(
        f"score-worker-batch[{len(completions)}]",
        parent_id=parent_id,
        start_unix=start_unix,
        duration_s=time.perf_counter() - t0,
    )


def _chunk_folder() -> Callable[[dict], None]:
    """A fold-once callable: many handles share one chunk's span."""
    folded = []

    def fold(span_dict: dict) -> None:
        if not folded:
            folded.append(True)
            fold_remote_spans([span_dict])

    return fold


class ScoreHandle:
    """The pending result of one submitted score (duck-typed Future).

    ``result()`` blocks until the score is available; pool failures
    (a broken worker, an argument that would not pickle after all) are
    healed by recomputing inline, so a handle always resolves unless the
    scorer itself raises.
    """

    __slots__ = ("_future", "_value", "_recompute", "_fold")

    def __init__(
        self,
        future: concurrent.futures.Future | None,
        value: Score | None,
        recompute: Callable[[], Score],
        fold: Callable[[dict], None] | None = None,
    ) -> None:
        self._future = future
        self._value = value
        self._recompute = recompute
        self._fold = fold  # set iff the worker task returns (score, span)

    def result(self) -> Score:
        if self._future is not None:
            try:
                resolved = self._future.result()
                if self._fold is not None:
                    resolved, span_dict = resolved
                    self._fold(span_dict)
                self._value = resolved
            except (
                BrokenProcessPool,
                pickle.PicklingError,
                # unpicklable arguments surfacing at call time (a stale
                # picklability verdict, an object that lies about its
                # picklability): TypeError is what pickle raises for
                # locks/sockets/etc.  A scorer legitimately raising one
                # of these recomputes inline and raises there instead.
                AttributeError,
                TypeError,
            ):
                self._value = self._recompute()
            self._future = None
        return self._value


class BatchScoreHandle:
    """One score inside a submitted batch (same ``result()`` protocol).

    The batch future resolves to the whole chunk's score list; each
    handle indexes its own entry.  Pool failures heal per score by
    recomputing inline, exactly like :class:`ScoreHandle`.
    """

    __slots__ = ("_future", "_index", "_value", "_recompute", "_fold")

    def __init__(
        self,
        future: concurrent.futures.Future,
        index: int,
        recompute: Callable[[], Score],
        fold: Callable[[dict], None] | None = None,
    ) -> None:
        self._future = future
        self._index = index
        self._value: Score | None = None
        self._recompute = recompute
        self._fold = fold  # shared fold-once: one span per chunk

    def result(self) -> Score:
        if self._future is not None:
            try:
                resolved = self._future.result()
                if self._fold is not None:
                    resolved, span_dict = resolved
                    self._fold(span_dict)
                self._value = resolved[self._index]
            except (
                BrokenProcessPool,
                pickle.PicklingError,
                AttributeError,
                TypeError,
            ):
                self._value = self._recompute()
            self._future = None
        return self._value


class ScoringPool:
    """Process-pool scorer with a transparent inline fallback.

    ``max_workers`` bounds the worker processes; ``mp_context`` names
    the :mod:`multiprocessing` start method (``spawn`` by default: safe
    alongside the runtime's thread pools).  Pass one pool to any number
    of :func:`repro.runtime.run` calls as ``RunConfig(scoring=...)``.
    """

    def __init__(self, max_workers: int = 4, *, mp_context: str = "spawn") -> None:
        if max_workers <= 0:
            raise HarnessError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self.mp_context = mp_context
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._closed = False
        self._mu = threading.Lock()
        # scorer id -> picklable?  scorers are long-lived task attributes;
        # a stale hit is harmless (submit falls back inline on error)
        self._picklable: dict[int, bool] = {}

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._mu:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(self.mp_context),
                )
                self._closed = False
            return self._pool

    def _scorer_picklable(self, scorer: Callable) -> bool:
        cached = self._picklable.get(id(scorer))
        if cached is not None:
            return cached
        try:
            pickle.dumps(scorer)
            ok = True
        except Exception:
            ok = False
        self._picklable[id(scorer)] = ok
        return ok

    def submit(
        self, scorer: Callable[[str, str], Score], completion: str, target: str
    ) -> ScoreHandle:
        """Queue one score; returns a handle whose ``result()`` blocks.

        Unpicklable scorers are computed inline *now* (the handle is
        already resolved) so callers never need to special-case them.
        """

        def recompute() -> Score:
            with span("score-inline"):
                return scorer(completion, target)

        if not self._scorer_picklable(scorer):
            return ScoreHandle(None, recompute(), recompute)
        # with a trace open, the worker times itself and ships a span
        # back alongside the score (folded at result() time)
        ctx = propagation_context()
        try:
            if ctx is not None:
                future = self._ensure_pool().submit(
                    _score_task_traced, scorer, completion, target,
                    ctx.get("parent"),
                )
            else:
                future = self._ensure_pool().submit(
                    _score_task, scorer, completion, target
                )
        except (
            BrokenProcessPool,
            pickle.PicklingError,
            RuntimeError,  # pool shut down concurrently
        ):
            return ScoreHandle(None, recompute(), recompute)
        fold = (lambda s: fold_remote_spans([s])) if ctx is not None else None
        return ScoreHandle(future, None, recompute, fold=fold)

    def submit_many(
        self,
        scorer: Callable[[str, str], Score],
        completions: Sequence[str],
        target: str,
        *,
        parallelism: int | None = None,
    ) -> list[ScoreHandle | BatchScoreHandle]:
        """Queue one unit-group: many completions against one target.

        The group is chunked across ``parallelism`` workers (default:
        all of them) and each chunk is a single worker call through
        :func:`repro.metrics.kernels.score_batch` — one pickle of the
        scorer + target per chunk instead of per score.  Returns one
        handle per completion, in order; results are element-wise
        identical to per-completion :meth:`submit`.
        """
        completions = list(completions)
        if not completions:
            return []

        def inline_chunk(chunk: list[str]) -> list[ScoreHandle]:
            with span("score-inline"):
                values = score_batch(chunk, target, scorer)
            return [
                ScoreHandle(None, value, lambda value=value: value)
                for value in values
            ]

        if not self._scorer_picklable(scorer):
            return inline_chunk(completions)
        workers = max(1, parallelism if parallelism is not None else self.max_workers)
        chunk_size = math.ceil(len(completions) / workers)
        ctx = propagation_context()
        handles: list[ScoreHandle | BatchScoreHandle] = []
        for start in range(0, len(completions), chunk_size):
            chunk = completions[start : start + chunk_size]
            try:
                if ctx is not None:
                    future = self._ensure_pool().submit(
                        _score_batch_task_traced, scorer, chunk, target,
                        ctx.get("parent"),
                    )
                else:
                    future = self._ensure_pool().submit(
                        _score_batch_task, scorer, chunk, target
                    )
            except (
                BrokenProcessPool,
                pickle.PicklingError,
                RuntimeError,  # pool shut down concurrently
            ):
                handles.extend(inline_chunk(chunk))
                continue
            # the chunk's handles share one fold-once so its worker span
            # is recorded a single time however many results are read
            fold = _chunk_folder() if ctx is not None else None
            for index, completion in enumerate(chunk):

                def recompute(completion: str = completion) -> Score:
                    with span("score-inline"):
                        return scorer(completion, target)

                handles.append(BatchScoreHandle(future, index, recompute, fold=fold))
        return handles

    def warm(self) -> None:
        """Start the workers now (otherwise they start on first submit).

        Useful before timing: process start-up (~spawn + import) is paid
        here instead of inside the measured region.
        """
        pool = self._ensure_pool()
        done = [
            pool.submit(_score_task, _noop_scorer, "", "")
            for _ in range(self.max_workers)
        ]
        concurrent.futures.wait(done)

    def close(self) -> None:
        """Shut the workers down and join them (idempotent).

        Same lifecycle as :class:`~repro.runtime.executors.ThreadedExecutor`:
        a plain ``submit`` after ``close()`` transparently re-creates the
        worker pool (the caller owns it and must close again), while
        *re-entering* a closed pool as a context manager raises — the
        ``with`` block would otherwise silently resurrect workers the
        caller just paid to tear down.
        """
        with self._mu:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ScoringPool":
        with self._mu:
            if self._closed:
                raise HarnessError(
                    "ScoringPool was closed; create a new pool instead of "
                    "re-entering the closed one as a context manager"
                )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoringPool(max_workers={self.max_workers}, "
            f"mp_context={self.mp_context!r})"
        )


def _noop_scorer(completion: str, target: str) -> Score:
    """Warm-up body: exercises the worker round trip, scores nothing."""
    return Score(values={}, answer="")


class _SizedPool:
    """A per-run view of one ScoringPool at a chosen parallelism.

    The inner pool keeps its processes (start-up is paid once); the
    view only narrows how many chunks a batch is split into, so the
    adaptive choice never tears workers down mid-sweep.
    """

    __slots__ = ("_pool", "max_workers")

    def __init__(self, pool: ScoringPool, workers: int) -> None:
        self._pool = pool
        self.max_workers = workers

    def submit(
        self, scorer: Callable[[str, str], Score], completion: str, target: str
    ) -> ScoreHandle:
        return self._pool.submit(scorer, completion, target)

    def submit_many(
        self,
        scorer: Callable[[str, str], Score],
        completions: Sequence[str],
        target: str,
    ) -> list[ScoreHandle | BatchScoreHandle]:
        return self._pool.submit_many(
            scorer, completions, target, parallelism=self.max_workers
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_SizedPool(workers={self.max_workers})"


class AdaptiveScoringPool:
    """A ScoringPool whose worker count is chosen per run by a cost model.

    Two :class:`~repro.runtime.schedule.ExpectedCostModel` EMA channels
    — observed per-unit score cost (``score-unit``) and per-unit
    generation cost (``generation-unit``) — decide at ``run()`` time how
    many workers the run's scoring should use:

    * **no score observations yet** → 0 workers (inline): the cold run
      measures the real per-unit cost instead of guessing;
    * **expected total metric work below** ``min_offload_seconds`` →
      0 workers: the whole batch is cheaper than pool round trips;
    * otherwise ``ceil(score_cost / generation_cost)`` workers (capped
      at ``max_workers``): just enough scoring parallelism to keep pace
      with the executor's generation throughput — all ``max_workers``
      when generation cost is unknown or zero (warm-cache runs are pure
      scoring).

    The runner feeds the model back via :meth:`observe_run` after every
    run, so the choice adapts online; grids stay bit-identical at any
    worker count.  Pass one instance to any number of ``run()`` calls
    as ``RunConfig(scoring=...)`` exactly like a plain pool.
    """

    def __init__(
        self,
        max_workers: int = 4,
        *,
        cost_model: ExpectedCostModel | None = None,
        mp_context: str = "spawn",
        min_offload_seconds: float = 0.02,
    ) -> None:
        if max_workers <= 0:
            raise HarnessError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self.cost_model = (
            cost_model if cost_model is not None else ExpectedCostModel()
        )
        self.min_offload_seconds = min_offload_seconds
        self._pool = ScoringPool(max_workers, mp_context=mp_context)
        self.last_workers = 0  # what the most recent for_run() chose

    def choose_workers(self, n_scores: int) -> int:
        """Worker count for a run expecting ``n_scores`` score computes."""
        estimates = self.cost_model.snapshot()
        score_cost = estimates.get(SCORE_COST_KEY)
        if score_cost is None or n_scores <= 0:
            return 0
        if score_cost * n_scores < self.min_offload_seconds:
            return 0
        generation_cost = estimates.get(GENERATION_COST_KEY)
        if generation_cost is not None and generation_cost > 0:
            workers = math.ceil(score_cost / generation_cost)
        else:
            workers = self.max_workers
        return max(1, min(self.max_workers, workers))

    def for_run(self, n_scores: int) -> _SizedPool | None:
        """The scoring backend one run should use (``None`` = inline)."""
        workers = self.choose_workers(n_scores)
        self.last_workers = workers
        return _SizedPool(self._pool, workers) if workers > 0 else None

    def observe_run(
        self,
        *,
        scores_computed: int = 0,
        score_seconds: float = 0.0,
        generated: int = 0,
        generation_seconds: float = 0.0,
    ) -> None:
        """Fold one run's measured per-unit costs into the EMAs.

        The runner reports inline scoring time only (pooled scores
        overlap generation, so their wall time is not a per-unit cost),
        and generation time for every freshly executed unit.
        """
        if scores_computed > 0 and score_seconds > 0:
            self.cost_model.observe(
                SCORE_COST_KEY, score_seconds / scores_computed
            )
        if generated > 0 and generation_seconds > 0:
            self.cost_model.observe(
                GENERATION_COST_KEY, generation_seconds / generated
            )

    def warm(self) -> None:
        self._pool.warm()

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "AdaptiveScoringPool":
        self._pool.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._pool.__exit__(*exc_info)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveScoringPool(max_workers={self.max_workers}, "
            f"last_workers={self.last_workers})"
        )
