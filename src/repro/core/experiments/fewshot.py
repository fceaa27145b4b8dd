"""Few-shot prompting experiment (paper §4.5, Table 5).

The workflow-configuration experiment repeated with the original prompt
augmented by an example 2-node configuration; results are averaged over
the three configuration systems, as in the paper.  Both shot modes are
emitted into one runtime plan, so a parallel executor sees the whole
2 × systems × models sweep at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.experiments.base import CellResult, cell_from_eval
from repro.core.experiments.configuration import (
    CONFIGURATION_SYSTEMS,
    configuration_task,
)
from repro.core.task import DEFAULT_EPOCHS
from repro.data import MODELS
from repro.metrics.stats import pool
from repro.runtime import Plan, run


@dataclass
class FewshotComparison:
    """Zero-shot vs few-shot aggregates per model (Table 5 layout)."""

    models: Sequence[str]
    zero_shot: dict[str, CellResult]
    few_shot: dict[str, CellResult]

    def gain(self, model: str, metric: str = "bleu") -> float:
        """Few-shot minus zero-shot mean."""
        return (
            getattr(self.few_shot[model], metric).mean
            - getattr(self.zero_shot[model], metric).mean
        )

    def best_gainer(self, metric: str = "bleu") -> str:
        return max(self.models, key=lambda m: self.gain(m, metric))


def run_fewshot(
    models: Sequence[str] = MODELS,
    systems: Sequence[str] = CONFIGURATION_SYSTEMS,
    *,
    epochs: int = DEFAULT_EPOCHS,
    config=None,
) -> FewshotComparison:
    """Run both shot modes and average over the configuration systems."""
    plan = Plan("fewshot")
    specs = {}
    for fewshot in (False, True):
        for system in systems:
            task = configuration_task(system, fewshot=fewshot)
            for model in models:
                specs[(fewshot, system, model)] = plan.add_eval(
                    task, f"sim/{model}", epochs=epochs
                )
    outcome = run(plan, config=config)

    def averaged(fewshot: bool) -> dict[str, CellResult]:
        out: dict[str, CellResult] = {}
        for model in models:
            cells = [
                cell_from_eval(outcome.eval_result(specs[(fewshot, system, model)]))
                for system in systems
            ]
            out[model] = CellResult(
                bleu=pool(c.bleu for c in cells),
                chrf=pool(c.chrf for c in cells),
            )
        return out

    return FewshotComparison(
        models=list(models),
        zero_shot=averaged(False),
        few_shot=averaged(True),
    )
