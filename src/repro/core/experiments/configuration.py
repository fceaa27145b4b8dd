"""Workflow configuration experiment (paper §4.1, Table 1).

Models are asked for the configuration file of the 3-node
producer/two-consumer workflow; PyCOMPSs and Parsl are excluded because
their configuration files describe the execution environment rather than
the workflow structure (paper §4.1).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assets import fewshot_example_config, reference_config
from repro.core.experiments.base import ExperimentGrid, run_grid_sweep
from repro.core.samples import Sample
from repro.core.solvers import few_shot_solver, prompt_solver
from repro.core.task import DEFAULT_EPOCHS, Task
from repro.data import MODELS
from repro.errors import HarnessError
from repro.workflows import get_system

CONFIGURATION_SYSTEMS = ("adios2", "henson", "wilkins")


def configuration_task(
    system: str, variant: str = "original", fewshot: bool = False
) -> Task:
    """Build the configuration task for one workflow system."""
    if system not in CONFIGURATION_SYSTEMS:
        raise HarnessError(
            f"configuration experiment covers {CONFIGURATION_SYSTEMS}, "
            f"got {system!r} (PyCOMPSs/Parsl configs describe the execution "
            "environment, not the workflow)"
        )
    descriptor = get_system(system)
    sample = Sample(
        id=f"configuration/{system}",
        input="",
        target=reference_config(system),
        metadata={
            "experiment": "configuration",
            "system": system,
            "system_display": descriptor.display_name,
        },
    )
    solvers = [prompt_solver(variant)]
    if fewshot:
        solvers.append(
            few_shot_solver(fewshot_example_config(system), descriptor.display_name)
        )
    shot = "few-shot" if fewshot else "zero-shot"
    return Task(
        name=f"configuration/{system}/{variant}/{shot}",
        dataset=[sample],
        solvers=solvers,
    )


def run_configuration(
    models: Sequence[str] = MODELS,
    systems: Sequence[str] = CONFIGURATION_SYSTEMS,
    *,
    epochs: int = DEFAULT_EPOCHS,
    variant: str = "original",
    fewshot: bool = False,
    config=None,
) -> ExperimentGrid:
    """Sweep models × systems; returns the Table 1 grid."""
    return run_grid_sweep(
        "configuration",
        systems,
        models,
        lambda system: configuration_task(system, variant=variant, fewshot=fewshot),
        epochs=epochs,
        config=config,
    )
