"""Task code annotation experiment (paper §4.2, Table 2).

Models annotate the plain producer (C for ADIOS2/Henson, Python for
PyCOMPSs/Parsl) with the workflow system's API calls; Wilkins is excluded
because it requires no task-code changes (paper §4.2).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assets import annotated_producer, base_producer
from repro.core.experiments.base import ExperimentGrid, run_grid_sweep
from repro.core.samples import Sample
from repro.core.solvers import prompt_solver
from repro.core.task import DEFAULT_EPOCHS, Task
from repro.data import MODELS
from repro.errors import HarnessError
from repro.workflows import get_system

ANNOTATION_SYSTEMS = ("adios2", "henson", "pycompss", "parsl")


def annotation_task(system: str, variant: str = "original") -> Task:
    """Build the annotation task for one workflow system."""
    if system not in ANNOTATION_SYSTEMS:
        raise HarnessError(
            f"annotation experiment covers {ANNOTATION_SYSTEMS}, got "
            f"{system!r} (Wilkins requires no task-code changes)"
        )
    descriptor = get_system(system)
    sample = Sample(
        id=f"annotation/{system}",
        input="",
        target=annotated_producer(system),
        metadata={
            "experiment": "annotation",
            "system": system,
            "system_display": descriptor.display_name,
            "code": base_producer(descriptor.task_language),
        },
    )
    return Task(
        name=f"annotation/{system}/{variant}",
        dataset=[sample],
        solvers=[prompt_solver(variant)],
    )


def run_annotation(
    models: Sequence[str] = MODELS,
    systems: Sequence[str] = ANNOTATION_SYSTEMS,
    *,
    epochs: int = DEFAULT_EPOCHS,
    variant: str = "original",
    config=None,
) -> ExperimentGrid:
    """Sweep models × systems; returns the Table 2 grid."""
    return run_grid_sweep(
        "annotation",
        systems,
        models,
        lambda system: annotation_task(system, variant=variant),
        epochs=epochs,
        config=config,
    )
