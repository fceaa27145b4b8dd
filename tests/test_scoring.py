"""Run-time scoring: one scorer call per score-cache miss, after execution."""

from __future__ import annotations

import pytest

from repro.core.experiments import run_configuration
from repro.core.experiments.configuration import configuration_task
from repro.core.samples import Sample
from repro.core.scorers import CodeSimilarityScorer, Score
from repro.core.task import Task
from repro.errors import MetricError, ModelError
from repro.llm.api import register_model
from repro.llm.types import ModelOutput, ModelUsage
from repro.runtime import (
    FaultPolicy,
    Plan,
    RetryPolicy,
    RunConfig,
    ScoreCache,
    ThreadExecutor,
    run,
)
from executor_paths import EXECUTOR_PATHS, executor_path


def multi_group_plan() -> Plan:
    """Two tasks (two scorers) × two models: several (scorer, target) pairs."""
    plan = Plan("scoring-groups")
    for system in ("adios2", "wilkins"):
        task = configuration_task(system)
        for model in ("sim/o3", "sim/llama-3.3-70b"):
            plan.add_eval(task, model, epochs=3)
    return plan


def grids_equal(a, b) -> bool:
    return all(
        a.cell(row, model) == b.cell(row, model)
        for row in a.row_keys
        for model in a.models
    )


@pytest.fixture()
def scorer_calls(monkeypatch):
    """Record (scorer, target) for every CodeSimilarityScorer call."""
    calls = []
    original = CodeSimilarityScorer.__call__

    def spy(self, completion, target):
        calls.append((id(self), target))
        return original(self, completion, target)

    monkeypatch.setattr(CodeSimilarityScorer, "__call__", spy)
    return calls


class CountingScoreCache(ScoreCache):
    def __init__(self) -> None:
        super().__init__()
        self.puts = 0

    def put(self, key, score) -> None:
        self.puts += 1
        super().put(key, score)


def echo_task(prompts, scorer) -> Task:
    return Task(
        name="echo",
        dataset=[Sample(id=p, input=p, target="t") for p in prompts],
        scorer=scorer,
    )


class EchoProvider:
    """Echoes the prompt; prompts containing ``BAD`` always fail."""

    def __init__(self, name: str) -> None:
        self.name = name

    def generate(self, messages, config):
        prompt = messages[-1].content
        if "BAD" in prompt:
            raise ModelError(f"{self.name}: {prompt} is down")
        return ModelOutput(
            model=self.name,
            completion=f"echo:{prompt}:{config.seed}",
            usage=ModelUsage(input_tokens=1, output_tokens=1),
        )


def echo_model(name: str) -> str:
    provider = EchoProvider(name)
    register_model(name, lambda: provider)
    return name


class TestInlineScoring:
    def test_one_scorer_call_per_score_computed(self, scorer_calls):
        plan = multi_group_plan()
        groups = {(id(unit.scorer), unit.target) for unit in plan.units}
        assert len(groups) > 1
        outcome = run(plan)
        assert set(scorer_calls) == groups
        assert len(scorer_calls) == outcome.stats.scores_computed == len(plan.units)
        rerun = run(plan, config=RunConfig(score_cache=ScoreCache()))
        assert rerun.stats.scores_computed == len(plan.units)
        assert len(scorer_calls) == 2 * len(plan.units)

    def test_plain_function_scorer_is_scored_per_completion(self):
        scored = []

        def scorer(completion, target):
            scored.append(completion)
            return Score(values={"len": float(len(completion))}, answer=completion)

        plan = Plan("plain-scorer")
        plan.add_eval(echo_task(["a", "b"], scorer), echo_model("scoring/echo"), epochs=2)
        outcome = run(plan)
        assert len(scored) == outcome.stats.scores_computed == 4
        for unit in plan.units:
            result = outcome[unit.uid]
            assert result.score["len"] == len(result.generation.completion)

    def test_quarantined_generations_are_never_scored(self):
        scored = []

        def scorer(completion, target):
            scored.append(completion)
            return Score(values={"len": float(len(completion))}, answer=completion)

        plan = Plan("quarantine-scoring")
        plan.add_eval(
            echo_task(["good-1", "BAD-2", "good-3"], scorer),
            echo_model("scoring/flaky"),
            epochs=2,
        )
        faults = FaultPolicy(retry=RetryPolicy(max_attempts=1), on_failure="isolate")
        outcome = run(plan, config=RunConfig(faults=faults))
        assert outcome.stats.units_failed == 2
        assert set(outcome.failures) == {
            unit.uid for unit in plan.units if "BAD" in unit.prompt
        }
        assert not any("BAD" in completion for completion in scored)
        assert len(scored) == outcome.stats.scores_computed == 4
        assert set(outcome.results).isdisjoint(outcome.failures)

    def test_score_cache_puts_equal_scores_computed(self):
        cache = CountingScoreCache()
        plan = multi_group_plan()
        first = run(plan, config=RunConfig(score_cache=cache))
        assert cache.puts == first.stats.scores_computed > 0
        assert first.stats.score_hits + first.stats.scores_computed == len(plan.units)
        second = run(multi_group_plan(), config=RunConfig(score_cache=cache))
        assert cache.puts == first.stats.scores_computed  # nothing new stored
        assert second.stats.scores_computed == 0
        assert second.stats.score_hits == second.stats.total_units


    def test_warm_score_cache_calls_no_scorer(self, scorer_calls):
        cache = ScoreCache()
        first = run(multi_group_plan(), config=RunConfig(score_cache=cache))
        assert len(scorer_calls) == first.stats.scores_computed > 0
        run(multi_group_plan(), config=RunConfig(score_cache=cache))
        assert len(scorer_calls) == first.stats.scores_computed

    def test_scoring_starts_after_every_generation(self):
        events = []

        class RecordingProvider(EchoProvider):
            def generate(self, messages, config):
                events.append("generate")
                return super().generate(messages, config)

        def scorer(completion, target):
            events.append("score")
            return Score(values={"len": float(len(completion))}, answer=completion)

        provider = RecordingProvider("scoring/recording")
        register_model(provider.name, lambda: provider)
        plan = Plan("score-after-execution")
        plan.add_eval(echo_task(["a", "b", "c"], scorer), provider.name, epochs=2)
        run(plan, config=RunConfig(executor=ThreadExecutor(3)))
        assert events == ["generate"] * 6 + ["score"] * 6

    def test_deduplicated_units_are_scored_once(self, scorer_calls):
        plan = Plan("dedup-scoring")
        task = configuration_task("adios2")
        plan.add_eval(task, "sim/o3", epochs=2)
        plan.add_eval(task, "sim/o3", epochs=2)
        outcome = run(plan)
        assert outcome.stats.deduplicated == len(plan.units) // 2
        assert len(scorer_calls) == outcome.stats.scores_computed == (
            len(plan.units) - outcome.stats.deduplicated
        )
        assert outcome.stats.score_hits == outcome.stats.deduplicated

    def test_one_generation_is_scored_against_each_target(self):
        scored = []

        def scorer(completion, target):
            scored.append(target)
            return Score(values={"match": float(target in completion)}, answer=completion)

        task = Task(
            name="two-targets",
            dataset=[
                Sample(id="first", input="same prompt", target="same"),
                Sample(id="second", input="same prompt", target="other"),
            ],
            scorer=scorer,
        )
        plan = Plan("per-target-scoring")
        plan.add_eval(task, echo_model("scoring/targets"), epochs=1)
        outcome = run(plan)
        assert outcome.stats.generated == 1
        assert outcome.stats.scores_computed == 2
        assert sorted(scored) == ["other", "same"]
        values = sorted(result.score["match"] for result in outcome.results.values())
        assert values == [0.0, 1.0]

    @pytest.mark.parametrize(
        "second, shared",
        [
            (CodeSimilarityScorer(), True),
            (CodeSimilarityScorer(metrics=("bleu",)), False),
        ],
        ids=["equal-fingerprint", "other-metrics"],
    )
    def test_scores_shared_only_between_equal_fingerprints(self, second, shared):
        base = configuration_task("adios2")
        plan = Plan("fingerprint-sharing")
        plan.add_eval(base, "sim/o3", epochs=2)
        plan.add_eval(
            Task(name="twin", dataset=base.dataset, solvers=base.solvers, scorer=second),
            "sim/o3",
            epochs=2,
        )
        outcome = run(plan)
        half = len(plan.units) // 2
        assert outcome.stats.generated == half  # same prompts: one generation each
        assert outcome.stats.scores_computed == (half if shared else 2 * half)

    def test_scorer_error_propagates(self):
        def scorer(completion, target):
            raise MetricError(f"cannot score {completion!r}")

        plan = Plan("failing-scorer")
        plan.add_eval(echo_task(["a"], scorer), echo_model("scoring/raising"), epochs=1)
        with pytest.raises(MetricError, match="cannot score"):
            run(plan)

    def test_skipped_generations_are_never_scored(self):
        scored = []

        def scorer(completion, target):
            scored.append(completion)
            return Score(values={"len": float(len(completion))}, answer=completion)

        plan = Plan("skip-scoring")
        plan.add_eval(
            echo_task(["good", "BAD"], scorer), echo_model("scoring/skip"), epochs=2
        )
        faults = FaultPolicy(retry=RetryPolicy(max_attempts=1), on_failure="skip")
        outcome = run(plan, config=RunConfig(faults=faults))
        assert outcome.stats.units_failed == 2
        assert scored and not any("BAD" in completion for completion in scored)
        assert len(scored) == outcome.stats.scores_computed == 2

    def test_scores_persist_in_the_store(self, tmp_path, scorer_calls):
        from repro.persist import RunStore

        with RunStore(tmp_path / "store") as store:
            cold = run(multi_group_plan(), config=RunConfig(store=store))
        computed = len(scorer_calls)
        assert computed == cold.stats.scores_computed > 0
        with RunStore(tmp_path / "store") as store:
            warm = run(multi_group_plan(), config=RunConfig(store=store))
        assert warm.stats.generated == 0
        assert warm.stats.scores_computed == 0
        assert len(scorer_calls) == computed
        for uid in cold.results:
            assert warm[uid].score == cold[uid].score


@pytest.mark.parametrize("path", EXECUTOR_PATHS)
def test_scores_and_stats_identical_across_executors(path):
    baseline = run(multi_group_plan())
    executor = executor_path(path, max_concurrency=4)
    outcome = run(multi_group_plan(), config=RunConfig(executor=executor))
    assert outcome.stats.scores_computed == baseline.stats.scores_computed
    assert outcome.stats.score_hits == baseline.stats.score_hits
    for uid, result in baseline.results.items():
        assert outcome[uid].score == result.score


class TestKernelGridIdentity:
    """The *full* Table-1 grid is bit-identical across every executor with
    the numpy kernels in play."""

    def test_full_table1_grid_identical_across_executors(self):
        baseline = run_configuration(epochs=2)  # all models × all systems
        for path in EXECUTOR_PATHS:
            executor = executor_path(path, max_concurrency=4)
            grid = run_configuration(
                epochs=2, config=RunConfig(executor=executor)
            )
            assert grids_equal(baseline, grid), path

    def test_full_grid_identical_with_reference_scorers(self, monkeypatch):
        """The reference ``bleu``/``chrf`` score the same grid bit for bit."""
        import repro.core.scorers as scorers
        from repro.metrics import bleu, chrf

        fast = run_configuration(epochs=2)
        calls = {"bleu": 0, "chrf": 0}

        def reference(name, fn):
            def score(answer, compiled):
                calls[name] += 1
                return fn(answer, compiled.text)
            return score

        for name, fn in (("bleu", bleu), ("chrf", chrf)):
            monkeypatch.setitem(scorers._KERNEL_FNS, name, reference(name, fn))
        slow = run_configuration(epochs=2)
        assert calls["bleu"] == calls["chrf"] > 0
        assert grids_equal(fast, slow)
