"""Wilkins: data-centric in-situ workflows made easy.

Wilkins (Yildiz et al. 2024) defines workflows in a YAML file listing
tasks with their process counts and data requirements as *inports* and
*outports*; datasets flow through an HDF5 namespace with per-dataset
``file``/``memory`` flags selecting the transport (LowFive).  Tasks need
no code changes — which is why the paper excludes Wilkins from the
annotation experiment.

This package provides the YAML schema and parser
(:mod:`~repro.workflows.wilkins.config`), the config-field surface and
the config validator used by the evaluation harness.  Parsing YAML needs
PyYAML (the ``wilkins`` extra), imported when a document is parsed.
"""

from repro.workflows.wilkins.config import (
    DsetConfig,
    PortConfig,
    TaskConfig,
    WilkinsConfig,
    parse_wilkins_yaml,
    render_wilkins_yaml,
)
from repro.workflows.wilkins.surface import WILKINS_CONFIG_FIELDS
from repro.workflows.wilkins.system import wilkins_system
from repro.workflows.wilkins.validator import validate_config

__all__ = [
    "WilkinsConfig",
    "TaskConfig",
    "PortConfig",
    "DsetConfig",
    "parse_wilkins_yaml",
    "render_wilkins_yaml",
    "WILKINS_CONFIG_FIELDS",
    "validate_config",
    "wilkins_system",
]
