"""Fidelity ratchet: how far the reproduction sits from the paper's numbers.

Pins the per-table mean and max |measured - paper| for BLEU *and* ChrF
over the Table 1/2/3 cells and the 8 Table 5 cells, at the paper's 5
trials per cell, and the per-figure mean and max BLEU |Δ| over the
Figure 1a/1b/1c heatmaps, at one run per cell as the paper reports
them.  The pinned values are today's errors, so this is a ratchet that
may only tighten: a change that moves any table or figure further from
the paper fails here, and a change that moves it closer should lower
the pin to the new value in the same commit.  Each sweep runs once per
module.

The same Table 1/2/3 grids also pin the trial-to-trial spread against
the paper's standard errors, per table and metric, over the cells whose
published SE is above 0: how many of those cells have a measured SE of
exactly 0, and the mean |ln(measured SE / paper SE)| over the rest.
Five-trial SEs are too noisy to pin one cell at a time, so only these
pooled statistics are pinned, and both may only fall.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.core.experiments import (
    run_annotation,
    run_configuration,
    run_fewshot,
    run_prompt_sensitivity,
    run_translation,
)
from repro.data import FIGURE1A, FIGURE1B, FIGURE1C, MODELS, TABLE1, TABLE2, TABLE3, TABLE5

EPOCHS = 5
TOLERANCE = 1e-3

#: table -> (runner, paper cells)
TABLES = {
    "T1": (run_configuration, TABLE1),
    "T2": (run_annotation, TABLE2),
    "T3": (run_translation, TABLE3),
}

#: figure -> (prompt-sensitivity experiment, paper heatmap)
FIGURES = {
    "F1a": ("configuration", FIGURE1A),
    "F1b": ("annotation", FIGURE1B),
    "F1c": ("translation", FIGURE1C),
}

#: table -> {error statistic: pinned ceiling}, in score points (0..100)
PINNED = {
    "T1": {"bleu_mean": 1.140, "bleu_max": 3.150, "chrf_mean": 18.633, "chrf_max": 25.346},
    "T2": {"bleu_mean": 0.819, "bleu_max": 2.544, "chrf_mean": 6.028, "chrf_max": 14.068},
    "T3": {"bleu_mean": 1.293, "bleu_max": 4.661, "chrf_mean": 6.750, "chrf_max": 19.084},
    "T5": {"bleu_mean": 0.770, "bleu_max": 1.784, "chrf_mean": 11.136, "chrf_max": 21.130},
}

#: figure -> {error statistic: pinned ceiling}, BLEU only (the heatmaps' metric)
FIGURE_PINNED = {
    "F1a": {"bleu_mean": 1.866, "bleu_max": 8.414},
    "F1b": {"bleu_mean": 1.871, "bleu_max": 13.060},
    "F1c": {"bleu_mean": 1.721, "bleu_max": 8.027},
}


#: table -> {metric: (cells with zero measured SE, mean |ln(measured/paper SE)|)}
#: over the cells whose paper SE is above 0
SPREAD_PINNED = {
    "T1": {"bleu": (1, 1.224), "chrf": (1, 0.556)},
    "T2": {"bleu": (1, 1.752), "chrf": (2, 1.642)},
    "T3": {"bleu": (3, 1.478), "chrf": (4, 1.010)},
}


def _stats(deltas: dict[str, list[float]]) -> dict[str, float]:
    out = {}
    for metric, values in deltas.items():
        out[f"{metric}_mean"] = statistics.fmean(values)
        out[f"{metric}_max"] = max(values)
    return out


@pytest.fixture(scope="module")
def grids() -> dict:
    """The Table 1/2/3 grids at the paper's 5 trials per cell."""
    return {name: runner(epochs=EPOCHS) for name, (runner, _) in TABLES.items()}


@pytest.fixture(scope="module")
def errors(grids) -> dict[str, dict[str, float]]:
    """Per-table mean/max absolute error vs the paper, both metrics."""
    out = {}
    for name, (_, paper) in TABLES.items():
        grid = grids[name]
        out[name] = _stats({
            metric: [
                abs(getattr(grid.cell(row, model), metric).mean - getattr(cell, metric))
                for (row, model), cell in paper.items()
            ]
            for metric in ("bleu", "chrf")
        })
    comparison = run_fewshot(epochs=EPOCHS)
    shots = {"zero-shot": comparison.zero_shot, "few-shot": comparison.few_shot}
    out["T5"] = _stats({
        metric: [
            abs(getattr(shots[mode][model], metric).mean - getattr(cell, metric))
            for model, modes in TABLE5.items()
            for mode, cell in modes.items()
        ]
        for metric in ("bleu", "chrf")
    })
    return out


@pytest.fixture(scope="module")
def spread(grids) -> dict[str, dict[str, tuple[int, float]]]:
    """Per-table (zero-SE cells, mean |ln SE ratio|) vs the paper's SEs."""
    out = {}
    for name, (_, paper) in TABLES.items():
        out[name] = {}
        for metric in ("bleu", "chrf"):
            zero = 0
            log_ratios = []
            for (row, model), cell in paper.items():
                paper_se = getattr(cell, f"{metric}_se")
                if paper_se <= 0:
                    continue
                measured = getattr(grids[name].cell(row, model), metric).stderr
                if measured == 0:
                    zero += 1
                else:
                    log_ratios.append(abs(math.log(measured / paper_se)))
            out[name][metric] = (zero, statistics.fmean(log_ratios))
    return out


@pytest.fixture(scope="module")
def figure_errors() -> dict[str, dict[str, float]]:
    """Per-figure mean/max absolute BLEU error vs the paper, single runs."""
    out = {}
    for name, (experiment, paper) in FIGURES.items():
        heatmap = run_prompt_sensitivity(experiment, epochs=1)
        out[name] = _stats({
            "bleu": [
                abs(heatmap[condition][variant][model] - value)
                for condition, variants in paper.items()
                for variant, values in variants.items()
                for model, value in zip(MODELS, values, strict=True)
            ]
        })
    return out


@pytest.mark.parametrize("table", sorted(PINNED))
@pytest.mark.parametrize("stat", ["bleu_mean", "bleu_max", "chrf_mean", "chrf_max"])
def test_error_vs_paper_does_not_grow(errors, table, stat):
    measured = errors[table][stat]
    pinned = PINNED[table][stat]
    assert measured <= pinned + TOLERANCE, (
        f"{table} {stat} |Δ| vs paper grew: {measured:.3f} > pinned {pinned:.3f}"
    )


@pytest.mark.parametrize("figure", sorted(FIGURE_PINNED))
@pytest.mark.parametrize("stat", ["bleu_mean", "bleu_max"])
def test_figure_error_vs_paper_does_not_grow(figure_errors, figure, stat):
    measured = figure_errors[figure][stat]
    pinned = FIGURE_PINNED[figure][stat]
    assert measured <= pinned + TOLERANCE, (
        f"{figure} {stat} |Δ| vs paper grew: {measured:.3f} > pinned {pinned:.3f}"
    )


@pytest.mark.parametrize("table", sorted(SPREAD_PINNED))
@pytest.mark.parametrize("metric", ["bleu", "chrf"])
def test_spread_vs_paper_se_does_not_grow(spread, table, metric):
    zero, log_ratio = spread[table][metric]
    pinned_zero, pinned_log_ratio = SPREAD_PINNED[table][metric]
    assert zero <= pinned_zero, (
        f"{table} {metric}: {zero} cells with zero SE where the paper's is "
        f"above 0, pinned {pinned_zero}"
    )
    assert log_ratio <= pinned_log_ratio + TOLERANCE, (
        f"{table} {metric} mean |ln(SE / paper SE)| grew: "
        f"{log_ratio:.3f} > pinned {pinned_log_ratio:.3f}"
    )
