"""Henson: cooperative multitasking for in-situ processing.

Henson (Morozov & Lukic 2016) runs *puppets* — tasks compiled as shared
objects — under cooperative multitasking on the same ranks, exchanging
data by passing pointers through a named-value store.

* :mod:`~repro.workflows.henson.hwl` parses the workflow-description
  script (the artifact the configuration experiment targets for Henson);
* the C API surface registry (``henson_save_*``, ``henson_load_*``,
  ``henson_yield``, ``henson_active`` ...) and validator catch the
  hallucinated calls the paper reports (``henson_put``,
  ``henson_declare_variable``, ``henson_data_init``, ``henson_init`` ...).
"""

from repro.workflows.henson.hwl import HwlScript, PuppetSpec, parse_hwl, render_hwl
from repro.workflows.henson.surface import HENSON_C_API, HENSON_HWL_FIELDS
from repro.workflows.henson.system import henson_system
from repro.workflows.henson.validator import validate_config, validate_task_code

__all__ = [
    "HwlScript",
    "PuppetSpec",
    "parse_hwl",
    "render_hwl",
    "HENSON_C_API",
    "HENSON_HWL_FIELDS",
    "validate_config",
    "validate_task_code",
    "henson_system",
]
