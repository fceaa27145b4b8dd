"""Ground-truth artifacts for the three experiments.

* :mod:`~repro.core.assets.configs` — reference workflow configuration
  files (ADIOS2 XML, Henson hwl, Wilkins YAML) for the paper's 3-node
  producer/two-consumer workflow, plus the 2-node examples used for
  few-shot prompting;
* :mod:`~repro.core.assets.task_codes` — the plain producer task codes
  (C and Python) and their reference annotations for each workflow
  system, written against the *real* systems' APIs (these are evaluation
  ground truth, checked by the validators in :mod:`repro.workflows`).

Accessors return fresh strings; the texts are dedented and newline
normalized.
"""

from repro.core.assets.configs import (
    fewshot_example_config,
    reference_config,
)
from repro.core.assets.task_codes import (
    annotated_producer,
    base_producer,
)

__all__ = [
    "reference_config",
    "fewshot_example_config",
    "base_producer",
    "annotated_producer",
]
