"""Parsl: pervasive parallel programming in Python.

Parsl (Babuji et al. 2019) turns plain Python functions into *apps* with
``@python_app``/``@bash_app``; calling an app returns a future at once,
and the DataFlowKernel launches it when its inputs are ready.  Parsl has
no workflow-structure config file, so only the annotation and
translation experiments target it: this package holds the API surface
registry and the task-code validator that audits annotated code
against it.
"""

from repro.workflows.parsl_sim.surface import PARSL_API
from repro.workflows.parsl_sim.system import parsl_system
from repro.workflows.parsl_sim.validator import validate_task_code

__all__ = [
    "PARSL_API",
    "validate_task_code",
    "parsl_system",
]
