"""The paper's five workflow systems, as descriptors the evaluation checks against.

The paper judges LLM-written workflow artifacts against each system's
real API and config schema; it never executes them.  Each subpackage
provides:

1. an **API surface registry** — the set of real functions / config fields
   of that system, which is the ground truth against which hallucinated
   calls are detected;
2. a **validator** that audits generated artifacts (configs or annotated
   task codes) and reports nonexistent API usage, missing required calls,
   and unknown config fields with line numbers;
3. for the systems with a workflow config file, its **parser**
   (ADIOS2 XML, Henson ``.hwl``, Wilkins YAML);
4. a :class:`~repro.workflows.base.WorkflowSystem` **descriptor**
   bundling the above, returned by :func:`get_system`.

Systems: :mod:`~repro.workflows.adios2`, :mod:`~repro.workflows.henson`,
:mod:`~repro.workflows.parsl_sim`, :mod:`~repro.workflows.pycompss`,
:mod:`~repro.workflows.wilkins`.
"""

from repro.workflows.base import (
    ApiFunction,
    ApiRegistry,
    Diagnostic,
    Severity,
    ValidationReport,
    WorkflowSystem,
)
from repro.workflows.graph import DataLink, TaskSpec, WorkflowGraph
from repro.workflows.registry import all_systems, get_system

__all__ = [
    "ApiFunction",
    "ApiRegistry",
    "Diagnostic",
    "Severity",
    "ValidationReport",
    "WorkflowSystem",
    "WorkflowGraph",
    "TaskSpec",
    "DataLink",
    "get_system",
    "all_systems",
]
