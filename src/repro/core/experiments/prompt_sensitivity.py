"""Prompt-sensitivity experiment (paper §4.4, Figure 1).

Five prompt variants × four models per condition.  The paper's heatmaps
show single-run BLEU values (unlike the 5-trial tables), so the default
here is ``epochs=1``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.experiments.annotation import ANNOTATION_SYSTEMS, annotation_task
from repro.core.experiments.configuration import (
    CONFIGURATION_SYSTEMS,
    configuration_task,
)
from repro.core.experiments.translation import translation_task
from repro.data import MODELS, PROMPT_VARIANTS, TRANSLATION_DIRECTIONS
from repro.errors import HarnessError
from repro.runtime import Plan, run


def _conditions(experiment: str) -> Sequence[Hashable]:
    if experiment == "configuration":
        return CONFIGURATION_SYSTEMS
    if experiment == "annotation":
        return ANNOTATION_SYSTEMS
    if experiment == "translation":
        return TRANSLATION_DIRECTIONS
    raise HarnessError(f"unknown experiment {experiment!r}")


def _task(experiment: str, condition, variant: str):
    if experiment == "configuration":
        return configuration_task(condition, variant=variant)
    if experiment == "annotation":
        return annotation_task(condition, variant=variant)
    source, target = condition
    return translation_task(source, target, variant=variant)


def run_prompt_sensitivity(
    experiment: str,
    *,
    models: Sequence[str] = MODELS,
    variants: Sequence[str] = PROMPT_VARIANTS,
    conditions: Sequence[Hashable] | None = None,
    epochs: int = 1,
    config=None,
) -> dict[Hashable, dict[str, dict[str, float]]]:
    """Sweep conditions × variants × models.

    Returns ``{condition: {variant: {model: bleu_mean}}}``, the structure
    of one Figure 1 sub-plot per condition.
    """
    conditions = list(conditions if conditions is not None else _conditions(experiment))
    plan = Plan(f"prompt_sensitivity/{experiment}")
    specs = {}
    for condition in conditions:
        for variant in variants:
            task = _task(experiment, condition, variant)
            for model in models:
                specs[(condition, variant, model)] = plan.add_eval(
                    task, f"sim/{model}", epochs=epochs
                )
    outcome = run(plan, config=config)
    out: dict[Hashable, dict[str, dict[str, float]]] = {}
    for condition in conditions:
        out[condition] = {
            variant: {
                model: outcome.eval_result(specs[(condition, variant, model)])
                .aggregate("bleu")
                .mean
                for model in models
            }
            for variant in variants
        }
    return out
