"""Table 1 — workflow configuration experiment.

Regenerates the paper's Table 1: 4 models × {ADIOS2, Henson, Wilkins},
5 trials, BLEU + ChrF mean ± stderr, with Overall row/column.  Asserts
the paper's shape claims:

* ADIOS2 is the best-configured system overall; Henson and Wilkins trail
  far behind;
* Gemini-2.5-Pro and Claude-Sonnet-4 lead the overall row;
* Claude's trials are deterministic (stderr 0.0).
"""

from __future__ import annotations

from repro.core.experiments import run_configuration
from repro.data import MODELS, TABLE1
from repro.reporting import compare_with_paper, render_grid_table

EPOCHS = 5


def bench_table1_configuration(benchmark, report):
    grid = benchmark.pedantic(
        lambda: run_configuration(epochs=EPOCHS),
        rounds=1, iterations=1,
    )

    lines = [render_grid_table(grid, "Table 1: workflow configuration"), ""]
    for system in grid.row_keys:
        for model in grid.models:
            lines.append(
                compare_with_paper(
                    grid.cell(system, model),
                    TABLE1[(system, model)],
                    f"{system}/{model}",
                )
            )
    report("table1_configuration", "\n".join(lines))

    # --- shape assertions (the paper's claims) -----------------------------
    by_row = grid.overall_by_row()
    assert grid.best_row("bleu") == "adios2"
    assert by_row["adios2"].bleu.mean > by_row["henson"].bleu.mean + 15
    assert by_row["adios2"].bleu.mean > by_row["wilkins"].bleu.mean + 15

    overall = grid.overall_by_model()
    leaders = sorted(MODELS, key=lambda m: overall[m].bleu.mean, reverse=True)[:2]
    assert set(leaders) == {"gemini-2.5-pro", "claude-sonnet-4"}

    for system in grid.row_keys:
        claude = grid.cell(system, "claude-sonnet-4")
        assert claude.bleu.stderr == 0.0, "Claude trials should be deterministic"

    # calibration fidelity: every cell within tolerance of the paper value
    for (system, model), paper in TABLE1.items():
        measured = grid.cell(system, model).bleu.mean
        assert abs(measured - paper.bleu) < 10.0, (system, model, measured, paper.bleu)
