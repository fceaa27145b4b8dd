"""Table 3 — task code translation experiment.

Regenerates the paper's Table 3: 4 models × 4 directions, 5 trials.
Asserts the paper's shape claims:

* translating *into* the well-documented system of a pair is easier:
  →ADIOS2 beats →Henson and →PyCOMPSs beats →Parsl;
* no single model is uniformly best — o3 wins Henson→ADIOS2 while
  Gemini-2.5-Pro wins ADIOS2→Henson;
* translation scores sit slightly below annotation overall.
"""

from __future__ import annotations

from repro.core.experiments import run_annotation, run_translation
from repro.data import TABLE3
from repro.reporting import compare_with_paper, render_grid_table
from repro.runtime import RunConfig

EPOCHS = 5


def bench_table3_translation(benchmark, report):
    config = RunConfig()  # serial execution
    grid = benchmark.pedantic(
        lambda: run_translation(epochs=EPOCHS, config=config),
        rounds=1, iterations=1,
    )

    lines = [render_grid_table(grid, "Table 3: task code translation"), ""]
    for direction in grid.row_keys:
        for model in grid.models:
            lines.append(
                compare_with_paper(
                    grid.cell(direction, model),
                    TABLE3[(direction, model)],
                    f"{direction[0]}->{direction[1]}/{model}",
                )
            )
    report("table3_translation", "\n".join(lines))

    # --- shape assertions ---------------------------------------------------
    by_row = grid.overall_by_row()
    assert (
        by_row[("henson", "adios2")].bleu.mean
        > by_row[("adios2", "henson")].bleu.mean
    ), "translating to ADIOS2 should be easier than to Henson"
    assert (
        by_row[("parsl", "pycompss")].bleu.mean
        > by_row[("pycompss", "parsl")].bleu.mean
    ), "translating to PyCOMPSs should be easier than to Parsl"

    h2a = {m: grid.cell(("henson", "adios2"), m).bleu.mean for m in grid.models}
    a2h = {m: grid.cell(("adios2", "henson"), m).bleu.mean for m in grid.models}
    assert max(h2a, key=h2a.get) == "o3"
    assert max(a2h, key=a2h.get) == "gemini-2.5-pro"

    annotation = run_annotation(epochs=2)
    assert grid.grand_overall().bleu.mean < annotation.grand_overall().bleu.mean + 2

    for (direction, model), paper in TABLE3.items():
        measured = grid.cell(direction, model).bleu.mean
        assert abs(measured - paper.bleu) < 10.0, (direction, model, measured)
