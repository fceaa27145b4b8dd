"""Parallel evaluation runtime: plans, executors, cache, determinism."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.core.experiments import (
    CellResult,
    ExperimentGrid,
    run_configuration,
    run_prompt_sensitivity,
)
from repro.core.experiments.configuration import configuration_task
from repro.core.task import evaluate
from repro.data.prompts import get_template
from repro.errors import HarnessError
from repro.llm.api import get_model
from repro.llm.intent import analyze_prompt
from repro.llm.simulated import SimulatedModel
from repro.metrics.stats import Aggregate
from repro.persist import RunStore
from repro.runtime import (
    InMemoryResultCache,
    Plan,
    RunConfig,
    ScoreCache,
    SerialExecutor,
    ThreadExecutor,
    generation_key,
    run,
)
from repro.llm.types import GenerateConfig
from executor_paths import EXECUTOR_PATHS, executor_path


def small_sweep(executor=None, cache=None) -> ExperimentGrid:
    return run_configuration(
        models=["o3", "llama-3.3-70b"],
        systems=["adios2", "wilkins"],
        epochs=2,
        config=RunConfig(executor=executor, cache=cache),
    )


class TestPlan:
    def test_add_eval_expands_units(self):
        plan = Plan("p")
        task = configuration_task("wilkins")
        spec = plan.add_eval(task, "sim/o3", epochs=3)
        assert len(plan) == 3
        assert spec.epochs == 3
        assert [u.epoch for u in plan.units] == [0, 1, 2]
        # solver chain already ran: the prompt is rendered
        assert "Wilkins" in plan.units[0].prompt

    def test_uids_unique_even_for_identical_cells(self):
        plan = Plan("p")
        task = configuration_task("wilkins")
        plan.add_eval(task, "sim/o3", epochs=2)
        plan.add_eval(task, "sim/o3", epochs=2)
        uids = [u.uid for u in plan.units]
        assert len(set(uids)) == 4
        # ...but the generation keys coincide pairwise (same content)
        keys = {u.key for u in plan.units}
        assert len(keys) == 2

    def test_invalid_epochs(self):
        plan = Plan("p")
        with pytest.raises(HarnessError, match="epochs"):
            plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=0)

    def test_generation_key_sensitivity(self):
        base = GenerateConfig(seed=0)
        key = generation_key("prompt", "sim/o3", base)
        assert key == generation_key("prompt", "sim/o3", GenerateConfig(seed=0))
        assert key != generation_key("prompt!", "sim/o3", base)
        assert key != generation_key("prompt", "sim/claude-sonnet-4", base)
        assert key != generation_key("prompt", "sim/o3", GenerateConfig(seed=1))
        assert key != generation_key(
            "prompt", "sim/o3", GenerateConfig(temperature=0.7, seed=0)
        )

    def test_generation_key_golden_values(self):
        """Pinned content addresses: the on-disk store contract.

        A durable :mod:`repro.persist` store written today must still be
        consulted correctly by any future build, so the key derivation
        may never drift.  If this test fails, the change breaks every
        existing on-disk cache — don't update the constants unless that
        cost is intended (and then bump the store layout too).
        """
        assert generation_key(
            "Generate the ADIOS2 XML configuration for a 3-node workflow.",
            "sim/gpt-4o",
            GenerateConfig(temperature=0.2, top_p=0.95, max_tokens=4096, seed=0),
        ) == "9958be4ab9f9baf17f52887cc7a9f9612110e3aa35aff3f95d3532abe5f94a1c"
        assert generation_key(
            "Generate the ADIOS2 XML configuration for a 3-node workflow.",
            "sim/gpt-4o",
            GenerateConfig(temperature=0.2, top_p=0.95, max_tokens=4096, seed=3),
        ) == "6f18d905b31455e1233cd87223c5ffaa1378c2beb46e4a7b15712d6e6baf7a78"
        assert generation_key("", "sim/o3", GenerateConfig()) == (
            "d126e8b1d262ca47c6730a9227ddf70843ed9d5bc9b33da3f52ddfea367f1daa"
        )


class TestExecutorEquivalence:
    """Serial and threaded execution must be bit-identical."""

    @pytest.fixture(scope="class")
    def serial_grid(self):
        return small_sweep(SerialExecutor())

    def test_grid_identical_to_serial(self, serial_grid):
        grid = small_sweep(executor_path("threads"))
        assert grid.cells == serial_grid.cells

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_prompt_sensitivity_identical(self, path):
        executor = executor_path(path)
        result = run_prompt_sensitivity(
            "configuration",
            models=["o3"],
            variants=["original", "detailed"],
            conditions=["wilkins"],
            epochs=1,
            config=RunConfig(executor=executor),
        )
        reference = run_prompt_sensitivity(
            "configuration",
            models=["o3"],
            variants=["original", "detailed"],
            conditions=["wilkins"],
            epochs=1,
        )
        assert result == reference

    def test_run_stats_account_every_unit(self):
        plan = Plan("p")
        task = configuration_task("wilkins")
        plan.add_eval(task, "sim/o3", epochs=2)
        config = RunConfig(executor=ThreadExecutor(4))
        outcome = run(plan, config=config)
        assert outcome.stats.total_units == 2
        assert outcome.stats.generated == 2
        assert outcome.stats.cache_hits == 0
        assert outcome.stats.deduplicated == 0

    def test_in_run_deduplication(self):
        plan = Plan("p")
        task = configuration_task("wilkins")
        plan.add_eval(task, "sim/o3", epochs=2)
        plan.add_eval(task, "sim/o3", epochs=2)  # identical generations
        outcome = run(plan)
        assert outcome.stats.total_units == 4
        assert outcome.stats.generated == 2
        assert outcome.stats.deduplicated == 2
        # deduplicated units share score-cache entries: 2 computed, 2 hits
        assert outcome.stats.scores_computed == 2
        assert outcome.stats.score_hits == 2

    def test_scores_identical_to_reference_metrics(self):
        # the compiled-metrics scoring path must agree with the plain
        # reference implementations on every scored unit
        from repro.metrics import bleu as ref_bleu, chrf as ref_chrf

        plan = Plan("p")
        for system in ("wilkins", "adios2"):
            plan.add_eval(configuration_task(system), "sim/o3", epochs=2)
        outcome = run(plan)
        targets = {u.uid: u.target for u in plan.units}
        for uid, result in outcome.results.items():
            answer, target = result.score.answer, targets[uid]
            assert result.score["bleu"] == pytest.approx(
                ref_bleu(answer, target), abs=1e-9
            )
            assert result.score["chrf"] == pytest.approx(
                ref_chrf(answer, target), abs=1e-9
            )

    def test_broken_executor_is_detected(self):
        class LossyExecutor:
            def execute(self, units):
                return {}

        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=1)
        config = RunConfig(executor=LossyExecutor())
        with pytest.raises(HarnessError, match="no generation"):
            run(plan, config=config)


def count_generates(monkeypatch) -> list:
    """Instrument SimulatedModel.generate with a call recorder."""
    calls = []
    real = SimulatedModel.generate

    def recording(self, messages, config):
        calls.append((self.name, config.seed))
        return real(self, messages, config)

    monkeypatch.setattr(SimulatedModel, "generate", recording)
    return calls


class TestResultCache:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_warm_cache_identical_and_zero_generations(
        self, backend, monkeypatch, tmp_path
    ):
        with RunStore(tmp_path / "store") as store:
            cache = store.result_cache if backend == "disk" else InMemoryResultCache()
            cold = small_sweep(cache=cache)
            calls = count_generates(monkeypatch)
            warm = small_sweep(cache=cache)
        assert calls == [], "warm cache rerun must not call the model"
        assert warm.cells == cold.cells

    def test_cache_shared_across_executors(self):
        cache = InMemoryResultCache()
        cold = small_sweep(SerialExecutor(), cache=cache)
        warm = small_sweep(ThreadExecutor(2), cache=cache)
        assert warm.cells == cold.cells

    def test_cache_shared_across_sweeps(self, monkeypatch):
        # the sensitivity sweep's `original` variant at epoch 0 reuses the
        # table sweep's generations — the cross-experiment cache case
        cache = InMemoryResultCache()
        run_configuration(
            models=["o3"],
            systems=["wilkins"],
            epochs=1,
            config=RunConfig(cache=cache),
        )
        calls = count_generates(monkeypatch)
        run_prompt_sensitivity(
            "configuration",
            models=["o3"],
            variants=["original"],
            conditions=["wilkins"],
            epochs=1,
            config=RunConfig(cache=cache),
        )
        assert calls == []

    def test_stats_hit_rate(self):
        cache = InMemoryResultCache()
        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=2)
        config = RunConfig(cache=cache)
        assert run(plan, config=config).stats.hit_rate == 0.0
        plan2 = Plan("p2")
        plan2.add_eval(configuration_task("wilkins"), "sim/o3", epochs=2)
        stats = run(plan2, config=config).stats
        assert stats.hit_rate == 1.0
        assert stats.generated == 0


class TestScoreCache:
    def test_multi_epoch_warm_rerun_hits_score_cache(self):
        # multi-epoch plan, warm result cache, shared score cache: the
        # rerun re-scores nothing and its EvalResults are unchanged
        cache = InMemoryResultCache()
        scores = ScoreCache()
        plan = Plan("p")
        task = configuration_task("wilkins")
        spec = plan.add_eval(task, "sim/gemini-2.5-pro", epochs=3)
        config = RunConfig(cache=cache, score_cache=scores)
        cold = run(plan, config=config)
        assert cold.stats.scores_computed == 3
        assert cold.stats.score_hits == 0

        plan2 = Plan("p2")
        spec2 = plan2.add_eval(task, "sim/gemini-2.5-pro", epochs=3)
        warm = run(plan2, config=config)
        assert warm.stats.generated == 0
        assert warm.stats.score_hits > 0
        assert warm.stats.score_hits == 3
        assert warm.stats.scores_computed == 0
        a, b = cold.eval_result(spec), warm.eval_result(spec2)
        assert a.aggregate("bleu") == b.aggregate("bleu")
        assert a.aggregate("chrf") == b.aggregate("chrf")

    def test_stats_account_every_unit(self):
        plan = Plan("p")
        plan.add_eval(configuration_task("wilkins"), "sim/o3", epochs=2)
        stats = run(plan).stats
        assert stats.scores_computed + stats.score_hits == stats.total_units

    def test_scorer_fingerprint_separates_different_scorers(self):
        from repro.core.scorers import CodeSimilarityScorer
        from repro.runtime import score_key

        class FakeUnit:
            key = "k"
            target = "t"

        a, b = FakeUnit(), FakeUnit()
        a.scorer = CodeSimilarityScorer(metrics=("bleu",))
        b.scorer = CodeSimilarityScorer(metrics=("bleu", "chrf"))
        assert score_key(a, "h") != score_key(b, "h")
        # equal-config scorer instances share entries
        b.scorer = CodeSimilarityScorer(metrics=("bleu",))
        assert score_key(a, "h") == score_key(b, "h")

    def test_list_metrics_scorer_still_scores(self):
        # metrics passed as a list (legal pre-engine) must not produce an
        # unhashable score-cache key
        from repro.core.samples import Sample
        from repro.core.scorers import CodeSimilarityScorer
        from repro.core.task import Task

        task = Task(
            name="list-metrics",
            dataset=[Sample(id="s", input="Provide the workflow configuration "
                            "file for the Wilkins workflow system.", target="x: 1")],
            solvers=[],
            scorer=CodeSimilarityScorer(metrics=["bleu"]),
        )
        plan = Plan("p")
        plan.add_eval(task, "sim/o3", epochs=2)
        outcome = run(plan)
        assert outcome.stats.scores_computed == 2

    def test_unhashable_fingerprint_falls_back_to_scorer_identity(self):
        from repro.runtime import score_key

        class Weird:
            fingerprint = ["not", "hashable"]

            def __call__(self, completion, target):  # pragma: no cover
                raise AssertionError

        class FakeUnit:
            key = "k"
            target = "t"
            scorer = Weird()

        key = score_key(FakeUnit(), "h")
        hash(key)  # must be usable as a dict key
        assert key[2] is FakeUnit.scorer

    def test_eviction_bounds_the_cache(self):
        cache = ScoreCache(maxsize=2)
        for i in range(5):
            cache.put(("k", i), i)
        assert len(cache) == 2
        assert cache.get(("k", 4)) == 4
        assert cache.get(("k", 0)) is None

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(HarnessError, match="maxsize"):
            ScoreCache(maxsize=0)


class TestEvaluateRouting:
    """core.task.evaluate is a thin wrapper over the runtime now."""

    def test_evaluate_accepts_unregistered_model_instance(self):
        from repro.llm.api import Model
        from repro.llm.types import ModelOutput, ModelUsage

        class EchoProvider:
            # unique name: the model registry is process-global and
            # test_llm_core.py already registers "custom/echo"
            name = "custom/echo-runtime"

            def generate(self, messages, config):
                return ModelOutput(
                    model=self.name,
                    completion=f"```\n{messages[-1].content[:10]}\n```",
                    usage=ModelUsage(1, 1),
                )

        task = configuration_task("wilkins")
        result = evaluate(task, Model(EchoProvider()), epochs=2)
        assert result.model_name == "custom/echo-runtime"
        assert len(result.samples[0].completions) == 2

    def test_conflicting_instance_name_rejected(self):
        from repro.errors import ModelError
        from repro.llm.api import Model

        class Impostor:
            name = "sim/o3"  # collides with the builtin registration

            def generate(self, messages, config):  # pragma: no cover
                raise AssertionError("must never be called")

        plan = Plan("p")
        with pytest.raises(ModelError, match="already registered"):
            plan.add_eval(configuration_task("wilkins"), Model(Impostor()), epochs=1)

    def test_registered_instance_passes_through(self):
        # the exact instance fetched from the registry is accepted as-is
        task = configuration_task("wilkins")
        model = get_model("sim/o3")
        result = evaluate(task, model, epochs=1)
        assert result.model_name == "sim/o3"


class TestExecutorErrors:
    """Provider exceptions surface identically on every executor."""

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    def test_provider_error_propagates(self, path):
        from repro.core.scorers import CodeSimilarityScorer
        from repro.core.task import Task
        from repro.core.samples import Sample
        from repro.errors import GenerationError

        # an empty prompt makes SimulatedModel raise GenerationError
        task = Task(
            name="broken",
            dataset=[Sample(id="s", input="", target="x")],
            solvers=[],
            scorer=CodeSimilarityScorer(),
        )
        plan = Plan("p")
        plan.add_eval(task, "sim/o3", epochs=1)
        executor = executor_path(path)
        with pytest.raises(GenerationError, match="empty prompt"):
            run(plan, config=RunConfig(executor=executor))

    def test_evaluate_accepts_executor_and_cache(self):
        task = configuration_task("wilkins")
        cache = InMemoryResultCache()
        config = RunConfig(cache=cache)
        a = evaluate(task, "sim/o3", epochs=2, run_config=config)
        b = evaluate(
            task,
            "sim/o3",
            epochs=2,
            run_config=RunConfig(executor=ThreadExecutor(2), cache=cache),
        )
        assert a.aggregate("bleu") == b.aggregate("bleu")
        assert [s.completions for s in a.samples] == [
            s.completions for s in b.samples
        ]

    def test_evaluate_matches_legacy_shape(self):
        task = configuration_task("wilkins")
        result = evaluate(task, "sim/o3", epochs=3)
        assert result.epochs == 3
        assert result.model_name == "sim/o3"
        assert len(result.samples) == 1
        assert len(result.samples[0].scores) == 3


class TestGridValidation:
    def test_add_unknown_row_raises(self):
        grid = ExperimentGrid("g", row_keys=["a"], models=["m"])
        cell = CellResult(
            Aggregate(50.0, 0.0, 1), Aggregate(50.0, 0.0, 1)
        )
        with pytest.raises(HarnessError, match="no row"):
            grid.add("b", "m", cell)

    def test_add_unknown_model_raises(self):
        grid = ExperimentGrid("g", row_keys=["a"], models=["m"])
        cell = CellResult(
            Aggregate(50.0, 0.0, 1), Aggregate(50.0, 0.0, 1)
        )
        with pytest.raises(HarnessError, match="no model"):
            grid.add("a", "nope", cell)


class TestCalibrationRace:
    def test_concurrent_cell_calibrates_once(self, monkeypatch):
        import repro.llm.simulated as simulated

        counter = {"n": 0}
        real = simulated.calibrate

        def slow_calibrate(*args, **kwargs):
            counter["n"] += 1
            time.sleep(0.05)  # widen the check-then-compute window
            return real(*args, **kwargs)

        monkeypatch.setattr(simulated, "calibrate", slow_calibrate)

        # a profile the shipped calibration table has no row for, so the
        # cell is calibrated rather than looked up
        profile = dataclasses.replace(get_model("sim/o3").provider.profile, name="o3-race")
        model = SimulatedModel(profile)
        prompt = get_template("configuration", "original").body.format(
            system="Wilkins"
        )
        intent = analyze_prompt(prompt)

        barrier = threading.Barrier(8)
        cells = []

        def hammer():
            barrier.wait()
            cells.append(model._cell(intent))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert counter["n"] == 1, "concurrent callers must calibrate once"
        assert all(c == cells[0] for c in cells)
