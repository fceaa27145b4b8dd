"""Derive the pre-calibrated depth table of the paper's cells.

A simulated cell's calibrated corruption depth ``k*`` is a pure function
of its reference artifact, its operator sequence and its BLEU target,
and the source tree fixes all three for every cell of the paper's
plan.  :mod:`repro.llm.calibrated` ships those depths so a cold run
looks them up instead of scanning each cell's quality curve; this
module derives that table from scratch, for every registered profile
and the 232 cells the seven paper sweeps (Tables 1/2/3/5 and the three
Figure 1 heatmaps) visit.  Each row carries the fingerprint the
simulator checks before it trusts the row (see
:func:`repro.llm.simulated.cell_fingerprint`).

Regenerate the shipped module, or check it for drift (exit 1)::

    python -m repro.core.calibration_table
    python -m repro.core.calibration_table --check

Both print the from-scratch calibration time and its cells per second.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys
import time
from typing import Iterator

from repro.core.experiments.annotation import ANNOTATION_SYSTEMS, annotation_task
from repro.core.experiments.configuration import CONFIGURATION_SYSTEMS, configuration_task
from repro.core.experiments.translation import translation_task
from repro.core.solvers import SolverChain
from repro.core.task import Task
from repro.data import PROMPT_VARIANTS, TRANSLATION_DIRECTIONS
from repro.llm.calibration import calibrate
from repro.llm.intent import Intent, analyze_prompt
from repro.llm.profiles import ALL_PROFILES
from repro.llm.simulated import SimulatedModel

#: (model name, cell key) -> (fingerprint, k, achieved BLEU)
Rows = dict[tuple[str, tuple], tuple[str, int, float]]

MODULE = "repro.llm.calibrated"
MODULE_PATH = pathlib.Path(__file__).resolve().parent.parent / "llm" / "calibrated.py"

_HEADER = '''"""Pre-calibrated corruption depths of the paper's cells (generated).

Do not edit: ``python -m repro.core.calibration_table`` writes this
module and ``--check`` fails when it drifts from a from-scratch
calibration.  Each row maps (model name, cell key) to (fingerprint,
k, achieved BLEU); the simulator uses a row only when the fingerprint
of the cell's reference, operators and target matches it.
"""

CALIBRATED = {
'''


def _paper_tasks() -> Iterator[Task]:
    """Every task the seven paper sweeps evaluate (duplicates included)."""
    for system in CONFIGURATION_SYSTEMS:
        for variant in PROMPT_VARIANTS:  # Table 1, Table 5 zero-shot, Figure 1(a)
            yield configuration_task(system, variant=variant)
        yield configuration_task(system, fewshot=True)  # Table 5 few-shot
    for system in ANNOTATION_SYSTEMS:
        for variant in PROMPT_VARIANTS:  # Table 2, Figure 1(b)
            yield annotation_task(system, variant=variant)
    for source, target in TRANSLATION_DIRECTIONS:
        for variant in PROMPT_VARIANTS:  # Table 3, Figure 1(c)
            yield translation_task(source, target, variant=variant)


def paper_cells() -> list[tuple[SimulatedModel, Intent]]:
    """(model, intent) of every distinct calibrated cell of the paper's plan.

    Each intent is recovered from the rendered prompt, exactly as the
    simulator recovers it when the plan runs.
    """
    intents: dict[tuple, Intent] = {}
    for task in _paper_tasks():
        chain = SolverChain(list(task.solvers))
        for sample in task.dataset:
            intent = analyze_prompt(chain(sample).input)
            intents.setdefault(SimulatedModel._cell_key(intent), intent)
    models = [SimulatedModel(factory()) for factory in ALL_PROFILES.values()]
    return [(model, intent) for model in models for intent in intents.values()]


def derive_rows() -> Rows:
    """Calibrate every paper cell from scratch (no table lookup)."""
    rows: Rows = {}
    for model, intent in paper_cells():
        reference, ops, target, fingerprint = model.calibration_inputs(intent)
        result = calibrate(reference, ops, target)
        rows[(model.name, model._cell_key(intent))] = (
            fingerprint, result.k, result.achieved_bleu
        )
    return rows


def render_module(rows: Rows) -> str:
    """The source text of :mod:`repro.llm.calibrated` for ``rows``."""
    lines = [_HEADER]
    for key in sorted(rows, key=repr):
        lines.append(f"    {key!r}:\n        {rows[key]!r},\n")
    lines.append("}\n")
    return "".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.calibration_table",
        description="derive the pre-calibrated depth table of the paper's cells",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the shipped module instead of writing it; exit 1 on drift",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    rows = derive_rows()
    elapsed = time.perf_counter() - started
    print(f"calibrated {len(rows)} cells from scratch in {elapsed:.2f} s "
          f"({len(rows) / elapsed:.0f} cells/s)")
    text = render_module(rows)
    if not args.check:
        MODULE_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {MODULE} ({len(rows)} rows)")
        return 0
    shipped = MODULE_PATH.read_text(encoding="utf-8") if MODULE_PATH.exists() else ""
    if shipped == text:
        print(f"{MODULE} matches ({len(rows)} rows)")
        return 0
    stored = importlib.import_module(MODULE).CALIBRATED if shipped else {}
    drifted = sorted(
        (key for key in rows.keys() | stored.keys() if rows.get(key) != stored.get(key)),
        key=repr,
    )
    print(f"{MODULE} drifted from a from-scratch calibration "
          f"({len(drifted)} rows differ); regenerate it with "
          "python -m repro.core.calibration_table", file=sys.stderr)
    for key in drifted[:10]:
        print(f"  {key!r}: shipped {stored.get(key)!r}, derived {rows.get(key)!r}",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
