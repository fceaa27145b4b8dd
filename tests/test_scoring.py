"""Pipelined process-pool scoring: equivalence, fallbacks, stats."""

from __future__ import annotations

import pytest

from repro.core.experiments import run_configuration
from repro.core.scorers import CodeSimilarityScorer, Score
from repro.core.task import evaluate
from repro.errors import HarnessError
from repro.runtime import (
    AdaptiveScoringPool,
    AsyncExecutor,
    BatchingExecutor,
    Plan,
    RunConfig,
    ScoreCache,
    ScoringPool,
    SerialExecutor,
    ThreadedExecutor,
    run,
)

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)


@pytest.fixture(scope="module")
def pool():
    """One shared process pool: spawn start-up is paid once per module."""
    with ScoringPool(max_workers=2) as shared:
        shared.warm()
        yield shared


def small_plan(name: str = "scoring-test") -> Plan:
    from repro.core.experiments.configuration import configuration_task

    plan = Plan(name)
    plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
    return plan


def grids_equal(a, b) -> bool:
    return all(
        a.cell(row, model) == b.cell(row, model)
        for row in a.row_keys
        for model in a.models
    )


class TestScoringPool:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(HarnessError):
            ScoringPool(0)

    def test_submit_computes_in_worker_process(self, pool):
        scorer = CodeSimilarityScorer()
        handle = pool.submit(scorer, "print('hello')", "print('hello')")
        score = handle.result()
        assert isinstance(score, Score)
        assert score["bleu"] == pytest.approx(100.0)
        # identical to the inline computation, bit for bit
        assert score == scorer("print('hello')", "print('hello')")

    def test_unpicklable_scorer_falls_back_inline(self, pool):
        scorer = CodeSimilarityScorer(extractor=lambda text: text)
        handle = pool.submit(scorer, "a b c", "a b c")
        assert isinstance(handle.result(), Score)
        # the fallback is cached per scorer: a second submit stays inline
        assert pool._picklable[id(scorer)] is False

    def test_closed_pool_context_manager_raises(self):
        closing = ScoringPool(1)
        closing.close()
        with pytest.raises(HarnessError):
            with closing:
                pass

    def test_close_is_idempotent(self):
        p = ScoringPool(1)
        p.close()
        p.close()


class TestRunnerIntegration:
    def test_grid_bit_identical_across_executors_with_pool(self, pool):
        """Acceptance: Table-1 grid identical serial/threaded/async/batched
        with the process-pool scorer enabled."""
        baseline = run_configuration(**SMALL)
        for executor in (
            SerialExecutor(),
            ThreadedExecutor(4),
            AsyncExecutor(4),
            BatchingExecutor(2),
        ):
            config = RunConfig(executor=executor, scoring=pool)
            grid = run_configuration(**SMALL, config=config)
            assert grids_equal(baseline, grid), repr(executor)

    def test_stats_match_inline_scoring(self, pool):
        inline = run(small_plan())
        pooled = run(small_plan(), config=RunConfig(scoring=pool))
        assert pooled.stats.total_units == inline.stats.total_units
        assert pooled.stats.scores_computed == inline.stats.scores_computed
        assert pooled.stats.score_hits == inline.stats.score_hits
        for uid in inline.results:
            assert pooled[uid].score == inline[uid].score

    def test_warm_score_cache_skips_the_pool(self, pool):
        cache = ScoreCache()
        first = run(small_plan(), config=RunConfig(score_cache=cache, scoring=pool))
        second = run(small_plan(), config=RunConfig(score_cache=cache, scoring=pool))
        assert first.stats.scores_computed > 0
        assert second.stats.scores_computed == 0
        assert second.stats.score_hits == second.stats.total_units

    def test_streaming_executor_overlaps(self, pool):
        """ThreadedExecutor streams completions into the pool; results match."""
        inline = run(small_plan(), config=RunConfig(executor=ThreadedExecutor(4)))
        pooled = run(small_plan(), config=RunConfig(executor=ThreadedExecutor(4), scoring=pool))
        for uid in inline.results:
            assert pooled[uid].score == inline[uid].score

    def test_evaluate_accepts_scoring(self, pool):
        from repro.core.experiments.configuration import configuration_task

        task = configuration_task("adios2")
        inline = evaluate(task, "sim/o3", epochs=2)
        config = RunConfig(scoring=pool)
        pooled = evaluate(task, "sim/o3", epochs=2, run_config=config)
        assert pooled.aggregate("bleu") == inline.aggregate("bleu")

    def test_store_and_pool_compose(self, pool, tmp_path):
        """Pool-computed scores persist; the warm pass needs neither."""
        from repro.persist import RunStore

        with RunStore(tmp_path / "store") as store:
            run(small_plan(), config=RunConfig(store=store, scoring=pool))
        with RunStore(tmp_path / "store") as store:
            warm = run(small_plan(), config=RunConfig(store=store, scoring=pool))
        assert warm.stats.generated == 0
        assert warm.stats.scores_computed == 0


class TestKernelGridIdentity:
    """Acceptance for the vectorized-kernel PR: the *full* Table-1 grid is
    bit-identical across every executor with the numpy kernels, batched
    group scoring, and an adaptive pool in play."""

    def test_full_table1_grid_identical_across_executors(self, pool):
        from repro.metrics import kernels_enabled

        assert kernels_enabled()  # the fast path, not the fallback
        baseline = run_configuration(epochs=2)  # all models × all systems
        for make in (
            lambda: SerialExecutor(),
            lambda: ThreadedExecutor(4),
            lambda: AsyncExecutor(4),
            lambda: BatchingExecutor(2),
        ):
            config = RunConfig(executor=make(), scoring=pool)
            grid = run_configuration(epochs=2, config=config)
            assert grids_equal(baseline, grid), repr(make())

    def test_full_grid_identical_with_kernels_disabled(self, monkeypatch):
        """The compiled fallback scores the same grid bit for bit."""
        from repro.metrics.compiled import compile_reference

        fast = run_configuration(epochs=2)
        monkeypatch.setenv("REPRO_METRIC_KERNELS", "0")
        compile_reference.cache_clear()
        slow = run_configuration(epochs=2)
        assert grids_equal(fast, slow)

    def test_adaptive_pool_matches_inline_and_records_choice(self):
        with AdaptiveScoringPool(max_workers=2) as adaptive:
            baseline = run_configuration(**SMALL)
            # cold: no cost observations yet, so the run scores inline
            config = RunConfig(scoring=adaptive)
            cold = run_configuration(**SMALL, config=config)
            assert adaptive.last_workers == 0
            assert grids_equal(baseline, cold)
            # the cost model now has observations; whatever worker count
            # it picks, the grid must not move
            warm = run_configuration(**SMALL, config=config)
            assert 0 <= adaptive.last_workers <= 2
            assert grids_equal(baseline, warm)

    def test_adaptive_pool_stats_flow_into_the_manifest(self, tmp_path):
        from repro.persist import RunStore

        with AdaptiveScoringPool(max_workers=2) as adaptive:
            with RunStore(tmp_path / "store") as store:
                run(small_plan(), config=RunConfig(store=store, scoring=adaptive))
            with RunStore(tmp_path / "store") as store:
                outcome = run(small_plan(), config=RunConfig(store=store, scoring=adaptive))
        manifest = outcome.manifest
        assert manifest.stats.score_workers == adaptive.last_workers
        # the warm pass re-read its generations from store segments
        assert manifest.stats.read_lru_misses > 0
        assert manifest.stats.bytes_read > 0


class TestExecutorStreaming:
    def test_serial_execute_iter_matches_execute(self):
        plan = small_plan()
        units = plan.units
        serial = SerialExecutor()
        streamed = {gen.key: gen for gen in serial.execute_iter(units)}
        executed = serial.execute(units)
        assert {k: g.completion for k, g in streamed.items()} == {
            k: g.completion for k, g in executed.items()
        }

    def test_threaded_execute_iter_matches_execute(self):
        plan = small_plan()
        units = plan.units
        with ThreadedExecutor(4) as threaded:
            streamed = {gen.key: gen for gen in threaded.execute_iter(units)}
            assert set(streamed) == {unit.key for unit in units}
            executed = threaded.execute(units)
        assert {k: g.completion for k, g in streamed.items()} == {
            k: g.completion for k, g in executed.items()
        }

    def test_threaded_execute_iter_empty(self):
        with ThreadedExecutor(2) as threaded:
            assert list(threaded.execute_iter([])) == []
