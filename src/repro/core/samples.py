"""Samples: the unit of evaluation.

A sample carries the raw experiment parameters (experiment, system or
direction, prompt variant, shot mode); solvers turn it into a prompt,
models answer, scorers compare against ``target`` and return a
:class:`Score` (defined here, beside the sample, so the store layer can
decode scores without loading the metric kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Sample:
    """One prompt/target pair plus cell metadata."""

    id: str
    input: str  # the (initial) prompt text; solvers may rewrite it
    target: str  # reference artifact (ground truth)
    metadata: dict[str, Any] = field(default_factory=dict)

    def with_input(self, new_input: str) -> "Sample":
        return Sample(
            id=self.id, input=new_input, target=self.target,
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class Score:
    """Metric values for one completion."""

    values: dict[str, float]
    answer: str  # the extracted artifact that was scored

    def __getitem__(self, metric: str) -> float:
        return self.values[metric]
