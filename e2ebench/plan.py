"""The paper's full reproduction plan, driven through the public entry points.

Seven sweeps — Tables 1/2/3/5 at 5 trials per cell and the three Figure 1
heatmaps at 1 trial — run through the same runner calls and renderers
that ``examples/reproduce_tables.py`` makes.  The order they execute in
is a permutation chosen by the caller; the rendered output is always
assembled in canonical order, so its digest does not depend on it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass

from repro.core.experiments import (
    run_annotation,
    run_configuration,
    run_fewshot,
    run_prompt_sensitivity,
    run_translation,
)
from repro.data import TABLE1, TABLE2, TABLE3
from repro.reporting import (
    compare_with_paper,
    render_fewshot_table,
    render_figure1,
    render_grid_table,
)

EPOCHS = 5

#: sweep name -> (runner call, renderer); canonical (paper) order
SWEEPS = {
    "table1": (
        lambda config: run_configuration(epochs=EPOCHS, config=config),
        lambda grid: render_grid_table(grid, "Table 1: workflow configuration"),
    ),
    "table2": (
        lambda config: run_annotation(epochs=EPOCHS, config=config),
        lambda grid: render_grid_table(grid, "Table 2: task code annotation"),
    ),
    "table3": (
        lambda config: run_translation(epochs=EPOCHS, config=config),
        lambda grid: render_grid_table(grid, "Table 3: task code translation"),
    ),
    "table5": (
        lambda config: run_fewshot(epochs=EPOCHS, config=config),
        lambda cmp: render_fewshot_table(cmp, "Table 5: few-shot vs zero-shot"),
    ),
    "fig1a": (
        lambda config: run_prompt_sensitivity("configuration", epochs=1, config=config),
        lambda res: render_figure1(res, "Figure 1(a): configuration"),
    ),
    "fig1b": (
        lambda config: run_prompt_sensitivity("annotation", epochs=1, config=config),
        lambda res: render_figure1(res, "Figure 1(b): annotation"),
    ),
    "fig1c": (
        lambda config: run_prompt_sensitivity("translation", epochs=1, config=config),
        lambda res: render_figure1(res, "Figure 1(c): translation"),
    ),
}

#: (sweep, paper table, comparison label) for the 44 Table 1/2/3 cells
PAPER_TABLES = (
    ("table1", TABLE1, lambda row, model: f"T1 {row}/{model}"),
    ("table2", TABLE2, lambda row, model: f"T2 {row}/{model}"),
    ("table3", TABLE3, lambda row, model: f"T3 {row[0]}->{row[1]}/{model}"),
)


def sweep_order(seed: int, pass_index: int = 0) -> list[str]:
    """The permutation of the seven sweeps one pass runs in."""
    return random.Random(f"{seed}/{pass_index}").sample(list(SWEEPS), len(SWEEPS))


@dataclass
class PassResult:
    """What one full plan pass produced and how long its parts took."""

    wall_s: float
    sweep_s: dict[str, float]
    render_s: float
    digest: str
    fidelity: dict[str, float]


def fidelity(results: dict[str, object]) -> dict[str, float]:
    """Measured vs paper over the Table 1/2/3 cells, from the grids."""
    bleu_err: list[float] = []
    chrf_err: list[float] = []
    for sweep, table, _label in PAPER_TABLES:
        grid = results[sweep]
        for (row, model), paper in table.items():
            cell = grid.cell(row, model)
            bleu_err.append(abs(cell.bleu.mean - paper.bleu))
            chrf_err.append(abs(cell.chrf.mean - paper.chrf))
    return {
        "bleu_mae": statistics.fmean(bleu_err),
        "chrf_mae": statistics.fmean(chrf_err),
        "bleu_max_err": max(bleu_err),
        "chrf_max_err": max(chrf_err),
    }


def run_plan(config, order: list[str]) -> PassResult:
    """Run every sweep in ``order`` against ``config``; render and digest.

    The digest covers the rendered tables, heatmaps and paper-vs-measured
    lines in canonical order — the reproduction's output without its
    timing and store-summary lines.
    """
    if sorted(order) != sorted(SWEEPS):
        raise ValueError(f"order must be a permutation of {list(SWEEPS)}")
    results: dict[str, object] = {}
    texts: dict[str, str] = {}
    sweep_s: dict[str, float] = {}
    render_s = 0.0
    started = time.perf_counter()
    for name in order:
        execute, render = SWEEPS[name]
        t0 = time.perf_counter()
        results[name] = execute(config)
        t1 = time.perf_counter()
        texts[name] = render(results[name])
        render_s += time.perf_counter() - t1
        sweep_s[name] = t1 - t0
    t1 = time.perf_counter()
    lines = [texts[name] for name in SWEEPS]
    for sweep, table, label in PAPER_TABLES:
        for (row, model), paper in sorted(table.items()):
            lines.append(
                compare_with_paper(results[sweep].cell(row, model), paper, label(row, model))
            )
    render_s += time.perf_counter() - t1
    wall_s = time.perf_counter() - started
    text = "\n".join(lines) + "\n"
    return PassResult(
        wall_s=wall_s,
        sweep_s=sweep_s,
        render_s=render_s,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        fidelity=fidelity(results),
    )
