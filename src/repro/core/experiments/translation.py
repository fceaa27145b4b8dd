"""Task code translation experiment (paper §4.3, Table 3).

Models translate the *annotated* producer of the source system (from the
annotation experiment) into the target system's API, within each language
family: ADIOS2 ↔ Henson (C) and Parsl ↔ PyCOMPSs (Python).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assets import annotated_producer
from repro.core.experiments.base import ExperimentGrid, run_grid_sweep
from repro.core.samples import Sample
from repro.core.solvers import prompt_solver
from repro.core.task import DEFAULT_EPOCHS, Task
from repro.data import MODELS, TRANSLATION_DIRECTIONS
from repro.errors import HarnessError
from repro.workflows import get_system


def translation_task(source: str, target: str, variant: str = "original") -> Task:
    """Build the translation task for one (source → target) direction."""
    if (source, target) not in TRANSLATION_DIRECTIONS:
        raise HarnessError(
            f"translation experiment covers {TRANSLATION_DIRECTIONS}, "
            f"got {(source, target)!r}"
        )
    src = get_system(source)
    dst = get_system(target)
    sample = Sample(
        id=f"translation/{source}-to-{target}",
        input="",
        target=annotated_producer(target),
        metadata={
            "experiment": "translation",
            "source": source,
            "target": target,
            "source_display": src.display_name,
            "target_display": dst.display_name,
            "code": annotated_producer(source),
        },
    )
    return Task(
        name=f"translation/{source}-to-{target}/{variant}",
        dataset=[sample],
        solvers=[prompt_solver(variant)],
    )


def run_translation(
    models: Sequence[str] = MODELS,
    directions: Sequence[tuple[str, str]] = TRANSLATION_DIRECTIONS,
    *,
    epochs: int = DEFAULT_EPOCHS,
    variant: str = "original",
    config=None,
) -> ExperimentGrid:
    """Sweep models × directions; returns the Table 3 grid."""
    return run_grid_sweep(
        "translation",
        list(directions),
        models,
        lambda direction: translation_task(*direction, variant=variant),
        epochs=epochs,
        config=config,
    )
