"""Task definition and the evaluation entry point.

:func:`evaluate` runs every sample of a task through the solver chain,
queries the model once per epoch (epoch index = GenerateConfig seed, the
paper repeats 5 times), scores each completion, and aggregates
``mean ± standard error`` per sample and per metric.  Since the runtime
refactor it is a thin wrapper over :mod:`repro.runtime`: it builds a
one-task :class:`~repro.runtime.plan.Plan` and accepts the runtime's
``executor``/``cache`` knobs, so a single evaluation parallelises and
caches exactly like a full sweep.

The paper's decoding settings are the defaults: temperature 0.2 and
top_p 0.95 — applied "to all models except o3", which the provider layer
honours by flagging ``params_applied=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.samples import Sample
from repro.core.scorers import CodeSimilarityScorer, Score
from repro.core.solvers import Solver
from repro.errors import HarnessError
from repro.llm.api import Model
from repro.llm.types import GenerateConfig
from repro.metrics.stats import Aggregate, aggregate

DEFAULT_EPOCHS = 5
PAPER_GENERATE_CONFIG = GenerateConfig(temperature=0.2, top_p=0.95)


@dataclass
class Task:
    """A dataset plus the solver chain and scorer that evaluate it."""

    name: str
    dataset: list[Sample]
    solvers: Sequence[Solver] = ()
    scorer: CodeSimilarityScorer = field(default_factory=CodeSimilarityScorer)

    def __post_init__(self) -> None:
        if not self.dataset:
            raise HarnessError(f"task {self.name!r} has an empty dataset")


@dataclass
class SampleResult:
    """Per-sample outcome: one score per epoch, plus aggregates."""

    sample: Sample
    prompt: str
    scores: list[Score]
    completions: list[str]

    def metric_values(self, metric: str) -> list[float]:
        return [s[metric] for s in self.scores]

    def aggregate(self, metric: str) -> Aggregate:
        return aggregate(self.metric_values(metric))


@dataclass
class EvalResult:
    """Full evaluation outcome for (task, model)."""

    task_name: str
    model_name: str
    epochs: int
    samples: list[SampleResult]

    def aggregate(self, metric: str) -> Aggregate:
        """Pooled aggregate over all samples and epochs."""
        values = [v for s in self.samples for v in s.metric_values(metric)]
        return aggregate(values)

    def by_sample(self, metric: str) -> dict[str, Aggregate]:
        return {s.sample.id: s.aggregate(metric) for s in self.samples}


def evaluate(
    task: Task,
    model: Model | str,
    *,
    epochs: int = DEFAULT_EPOCHS,
    config: GenerateConfig | None = None,
    run_config=None,
) -> EvalResult:
    """Run ``task`` against ``model`` for ``epochs`` repeated trials.

    ``run_config`` is a :class:`~repro.runtime.config.RunConfig` bundling
    every runtime knob (named to avoid colliding with ``config``, the
    per-call :class:`GenerateConfig`); see :mod:`repro.runtime` and
    :mod:`repro.persist`.
    """
    # imported here: repro.runtime builds on this module's data types
    from repro.runtime import Plan, run

    plan = Plan(f"evaluate/{task.name}")
    spec = plan.add_eval(task, model, epochs=epochs, config=config)
    return run(plan, config=run_config).eval_result(spec)
