"""Shared result containers and sweep plumbing for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.errors import HarnessError
from repro.metrics.stats import Aggregate, pool


@dataclass(frozen=True)
class CellResult:
    """BLEU and ChrF aggregates for one (condition, model) cell."""

    bleu: Aggregate
    chrf: Aggregate


@dataclass
class ExperimentGrid:
    """Results of one sweep: rows are conditions, columns are models.

    Mirrors the layout of the paper's tables, including the Overall
    row/column convention (unweighted mean across conditions, with the
    spread *across conditions* as the uncertainty).
    """

    name: str
    row_keys: Sequence[Hashable]
    models: Sequence[str]
    cells: dict[tuple[Hashable, str], CellResult] = field(default_factory=dict)

    def cell(self, row: Hashable, model: str) -> CellResult:
        try:
            return self.cells[(row, model)]
        except KeyError:
            raise HarnessError(
                f"grid {self.name!r} has no cell ({row!r}, {model!r})"
            ) from None

    def add(self, row: Hashable, model: str, result: CellResult) -> None:
        if row not in self.row_keys:
            raise HarnessError(
                f"grid {self.name!r} has no row {row!r}; rows: {list(self.row_keys)}"
            )
        if model not in self.models:
            raise HarnessError(
                f"grid {self.name!r} has no model {model!r}; "
                f"models: {list(self.models)}"
            )
        self.cells[(row, model)] = result

    def overall_by_model(self) -> dict[str, CellResult]:
        """Overall row: pool each model's cells across conditions."""
        out: dict[str, CellResult] = {}
        for model in self.models:
            col = [self.cell(row, model) for row in self.row_keys]
            out[model] = CellResult(
                bleu=pool(c.bleu for c in col),
                chrf=pool(c.chrf for c in col),
            )
        return out

    def overall_by_row(self) -> dict[Hashable, CellResult]:
        """Overall column: pool each condition's cells across models."""
        out: dict[Hashable, CellResult] = {}
        for row in self.row_keys:
            cells = [self.cell(row, model) for model in self.models]
            out[row] = CellResult(
                bleu=pool(c.bleu for c in cells),
                chrf=pool(c.chrf for c in cells),
            )
        return out

    def grand_overall(self) -> CellResult:
        """Bottom-right cell: pool the per-model overall values."""
        overall = self.overall_by_model()
        return CellResult(
            bleu=pool(overall[m].bleu for m in self.models),
            chrf=pool(overall[m].chrf for m in self.models),
        )

    def best_model(self, metric: str = "bleu") -> str:
        """Model with the highest overall mean."""
        overall = self.overall_by_model()
        return max(
            self.models, key=lambda m: getattr(overall[m], metric).mean
        )

    def best_row(self, metric: str = "bleu") -> Hashable:
        """Condition on which models perform best overall."""
        overall = self.overall_by_row()
        return max(
            self.row_keys, key=lambda r: getattr(overall[r], metric).mean
        )


def cell_from_eval(result) -> CellResult:
    """Build a CellResult from an :class:`~repro.core.task.EvalResult`."""
    return CellResult(
        bleu=result.aggregate("bleu"),
        chrf=result.aggregate("chrf"),
    )


def run_grid_sweep(
    name: str,
    rows: Sequence[Hashable],
    models: Sequence[str],
    task_for_row: Callable[[Hashable], object],
    *,
    epochs: int,
    config=None,
) -> ExperimentGrid:
    """Plan and run a rows × models sweep through the runtime.

    The shared body of the grid-shaped experiment runners: one
    :class:`~repro.runtime.plan.Plan` over all cells (so a parallel
    executor sees the whole sweep at once), one run, one grid.
    ``config`` is a :class:`~repro.runtime.config.RunConfig` carrying
    every runtime knob.  Its ``store`` makes the sweep durable and
    resumable (see :mod:`repro.persist`); its ``faults`` installs a
    :class:`~repro.runtime.faults.FaultPolicy` — with an isolating
    policy, cells whose units were quarantined are simply absent from
    the grid (``grid.cell`` raises for them) until a resumed run heals
    them, instead of one bad unit aborting the whole sweep.
    """
    # imported here: repro.runtime builds on repro.core
    from repro.errors import UnitFailedError
    from repro.runtime import Plan, run

    plan = Plan(name)
    specs = {}
    for row in rows:
        task = task_for_row(row)
        for model in models:
            specs[(row, model)] = plan.add_eval(task, f"sim/{model}", epochs=epochs)
    outcome = run(plan, config=config)
    grid = ExperimentGrid(name=name, row_keys=list(rows), models=list(models))
    for (row, model), spec in specs.items():
        try:
            grid.add(row, model, cell_from_eval(outcome.eval_result(spec)))
        except UnitFailedError:
            # quarantined cell: recorded on the run (and its manifest),
            # healed by re-running against the same store
            continue
    return grid
