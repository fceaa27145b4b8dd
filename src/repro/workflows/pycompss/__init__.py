"""PyCOMPSs: task-based parallel workflows in Python.

PyCOMPSs (Tejedor et al. 2017) turns plain Python methods into tasks
with the ``@task`` decorator; parameter *directions* (``FILE_IN``,
``FILE_OUT``, ``INOUT`` ...) declare data dependencies, and a small
synchronization API (``compss_wait_on``, ``compss_wait_on_file``,
``compss_open``, ``compss_barrier``) materializes results.  PyCOMPSs has
no workflow-structure config file, so only the annotation and
translation experiments target it: this package holds the API surface
registry and the task-code validator that audits annotated code
against it.
"""

from repro.workflows.pycompss.surface import PYCOMPSS_API
from repro.workflows.pycompss.system import pycompss_system
from repro.workflows.pycompss.validator import validate_task_code

__all__ = [
    "PYCOMPSS_API",
    "validate_task_code",
    "pycompss_system",
]
