"""ADIOS2: step-based I/O middleware for coupled workflows.

* the C API surface registry (``adios2_*``) and the task-code validator
  that flags hallucinated calls against it;
* the XML runtime-configuration parser (:mod:`repro.workflows.adios2.xmlconfig`),
  the artifact the paper's *workflow configuration* experiment targets
  for ADIOS2, and the config validator over it.
"""

from repro.workflows.adios2.surface import ADIOS2_C_API, ADIOS2_CONFIG_FIELDS
from repro.workflows.adios2.system import adios2_system
from repro.workflows.adios2.validator import validate_config, validate_task_code
from repro.workflows.adios2.xmlconfig import AdiosConfig, IOConfig, parse_xml_config

__all__ = [
    "AdiosConfig",
    "IOConfig",
    "parse_xml_config",
    "ADIOS2_C_API",
    "ADIOS2_CONFIG_FIELDS",
    "validate_config",
    "validate_task_code",
    "adios2_system",
]
