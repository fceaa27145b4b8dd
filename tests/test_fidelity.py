"""Fidelity ratchet: how far the reproduction sits from the paper's tables.

Pins the per-table mean and max |measured - paper| for BLEU *and* ChrF
over the Table 1/2/3 cells, at the paper's 5 trials per cell.  The
pinned values are today's errors, so this is a ratchet that may only
tighten: a change that moves any table further from the paper fails
here, and a change that moves it closer should lower the pin to the new
value in the same commit.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core.experiments import run_annotation, run_configuration, run_translation
from repro.data import TABLE1, TABLE2, TABLE3

EPOCHS = 5
TOLERANCE = 1e-3

#: table -> (runner, paper cells)
TABLES = {
    "T1": (run_configuration, TABLE1),
    "T2": (run_annotation, TABLE2),
    "T3": (run_translation, TABLE3),
}

#: table -> {error statistic: pinned ceiling}, in score points (0..100)
PINNED = {
    "T1": {"bleu_mean": 1.140, "bleu_max": 3.150, "chrf_mean": 18.633, "chrf_max": 25.346},
    "T2": {"bleu_mean": 0.819, "bleu_max": 2.544, "chrf_mean": 6.028, "chrf_max": 14.068},
    "T3": {"bleu_mean": 1.293, "bleu_max": 4.661, "chrf_mean": 6.750, "chrf_max": 19.084},
}


@pytest.fixture(scope="module")
def errors() -> dict[str, dict[str, float]]:
    """Per-table mean/max absolute error vs the paper, both metrics."""
    out = {}
    for name, (runner, paper) in TABLES.items():
        grid = runner(epochs=EPOCHS)
        stats = {}
        for metric in ("bleu", "chrf"):
            deltas = [
                abs(getattr(grid.cell(row, model), metric).mean - getattr(cell, metric))
                for (row, model), cell in paper.items()
            ]
            stats[f"{metric}_mean"] = statistics.fmean(deltas)
            stats[f"{metric}_max"] = max(deltas)
        out[name] = stats
    return out


@pytest.mark.parametrize("table", sorted(PINNED))
@pytest.mark.parametrize("stat", ["bleu_mean", "bleu_max", "chrf_mean", "chrf_max"])
def test_error_vs_paper_does_not_grow(errors, table, stat):
    measured = errors[table][stat]
    pinned = PINNED[table][stat]
    assert measured <= pinned + TOLERANCE, (
        f"{table} {stat} |Δ| vs paper grew: {measured:.3f} > pinned {pinned:.3f}"
    )
