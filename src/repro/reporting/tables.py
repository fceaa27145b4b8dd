"""Table renderers matching the paper's layout (Tables 1, 2, 3, 5).

Each renderer takes measured results and emits monospace text with
``BLEU / ChrF`` column pairs per model, an Overall row and column, and
bold markers (``*...*``) on the best model and best condition — the same
conventions the paper uses.  :func:`reproduce_table` is the one-call
entry point: it runs the underlying sweep through the parallel runtime
(``executor``/``cache`` knobs included) and renders the result.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.experiments.annotation import run_annotation
from repro.core.experiments.base import CellResult, ExperimentGrid
from repro.core.experiments.configuration import run_configuration
from repro.core.experiments.fewshot import FewshotComparison, run_fewshot
from repro.core.experiments.translation import run_translation
from repro.core.task import DEFAULT_EPOCHS
from repro.data import MODEL_LABELS, Cell4
from repro.errors import HarnessError
from repro.utils.tables import TextTable


def _row_label(key: Hashable) -> str:
    if isinstance(key, tuple):
        from repro.workflows import get_system

        return f"{get_system(key[0]).display_name} to {get_system(key[1]).display_name}"
    from repro.workflows import get_system

    return get_system(key).display_name


def render_grid_table(grid: ExperimentGrid, title: str) -> str:
    """Render an experiment grid in the paper's table layout."""
    columns: list[str] = []
    for model in grid.models:
        label = MODEL_LABELS.get(model, model)
        columns += [f"{label} BLEU", f"{label} ChrF"]
    columns += ["Overall BLEU", "Overall ChrF"]

    table = TextTable(title=title, columns=columns)
    best_model = grid.best_model("bleu")
    best_row = grid.best_row("bleu")
    by_row = grid.overall_by_row()

    for row in grid.row_keys:
        cells = []
        for model in grid.models:
            cell = grid.cell(row, model)
            cells += [cell.bleu.render(), cell.chrf.render()]
        overall = by_row[row]
        bold = row == best_row
        overall_bleu = overall.bleu.render()
        overall_chrf = overall.chrf.render()
        if bold:
            overall_bleu = f"*{overall_bleu}*"
            overall_chrf = f"*{overall_chrf}*"
        cells += [overall_bleu, overall_chrf]
        table.add_row(_row_label(row), cells)

    by_model = grid.overall_by_model()
    overall_cells = []
    for model in grid.models:
        cell = by_model[model]
        bleu = cell.bleu.render()
        chrf = cell.chrf.render()
        if model == best_model:
            bleu, chrf = f"*{bleu}*", f"*{chrf}*"
        overall_cells += [bleu, chrf]
    grand = grid.grand_overall()
    overall_cells += [grand.bleu.render(), grand.chrf.render()]
    table.add_row("Overall", overall_cells)
    return table.render()


def render_fewshot_table(comparison: FewshotComparison, title: str) -> str:
    """Render the Table 5 layout: zero-shot vs few-shot per model."""
    columns: list[str] = []
    for model in comparison.models:
        label = MODEL_LABELS.get(model, model)
        columns += [f"{label} BLEU", f"{label} ChrF"]
    table = TextTable(title=title, columns=columns)
    for approach, data in (
        ("Original (zero-shot)", comparison.zero_shot),
        ("Few-shot prompting", comparison.few_shot),
    ):
        cells = []
        for model in comparison.models:
            cell = data[model]
            cells += [cell.bleu.render(), cell.chrf.render()]
        table.add_row(approach, cells)
    return table.render()


_TABLE_RUNNERS = {
    "table1": (run_configuration, "Table 1: workflow configuration"),
    "table2": (run_annotation, "Table 2: task code annotation"),
    "table3": (run_translation, "Table 3: task code translation"),
    "table5": (run_fewshot, "Table 5: few-shot vs zero-shot (configuration)"),
}


def reproduce_table(
    which: str,
    *,
    epochs: int = DEFAULT_EPOCHS,
    config=None,
) -> str:
    """Run one of the paper's tables through the runtime and render it.

    ``which`` is one of ``table1``/``table2``/``table3``/``table5``;
    ``config`` is a :class:`~repro.runtime.config.RunConfig` bundling the
    runtime knobs, forwarded to :func:`repro.runtime.run` via the
    experiment runner.  A config with a :class:`~repro.persist.RunStore`
    makes the table durable and resumable across processes; build one
    with ``RunConfig.from_url(...)`` to point the table at a networked
    store.
    """
    try:
        runner, title = _TABLE_RUNNERS[which]
    except KeyError:
        raise HarnessError(
            f"unknown table {which!r}; available: {sorted(_TABLE_RUNNERS)}"
        ) from None
    result = runner(epochs=epochs, config=config)
    if isinstance(result, FewshotComparison):
        return render_fewshot_table(result, title)
    return render_grid_table(result, title)


def compare_with_paper(
    measured: CellResult, paper: Cell4, label: str
) -> str:
    """One-line paper-vs-measured comparison for EXPERIMENTS.md."""
    d_bleu = measured.bleu.mean - paper.bleu
    d_chrf = measured.chrf.mean - paper.chrf
    return (
        f"{label}: paper BLEU {paper.bleu:.1f}±{paper.bleu_se:.1f} / "
        f"measured {measured.bleu.render()} (Δ{d_bleu:+.1f}); "
        f"paper ChrF {paper.chrf:.1f}±{paper.chrf_se:.1f} / "
        f"measured {measured.chrf.render()} (Δ{d_chrf:+.1f})"
    )
