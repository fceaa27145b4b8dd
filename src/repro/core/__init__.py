"""The evaluation harness — the paper's primary contribution, reproduced.

An Inspect-AI-style pipeline:

* :class:`~repro.core.samples.Sample` — one prompt/target pair with
  metadata identifying the experiment cell;
* :class:`~repro.core.task.Task` — dataset + solver chain + scorer;
* :func:`~repro.core.task.evaluate` — runs a task against a model for
  ``epochs`` repetitions with a :class:`~repro.llm.types.GenerateConfig`
  (temperature 0.2 / top_p 0.95 in the paper, except o3) and aggregates
  mean ± standard error;
* experiment builders under :mod:`repro.core.experiments` for workflow
  configuration, task-code annotation, task-code translation, prompt
  sensitivity, and few-shot prompting;
* :class:`~repro.core.repair.RepairLoop` — the iterative error-correction
  extension the paper's conclusion proposes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.samples import Sample, Score
    from repro.core.scorers import CodeSimilarityScorer
    from repro.core.solvers import SolverChain, few_shot_solver, prompt_solver
    from repro.core.task import EvalResult, Task, evaluate

_EXPORTS = {  # public name -> defining module
    "Sample": "repro.core.samples",
    "Task": "repro.core.task",
    "evaluate": "repro.core.task",
    "EvalResult": "repro.core.task",
    "Score": "repro.core.samples",
    "CodeSimilarityScorer": "repro.core.scorers",
    "SolverChain": "repro.core.solvers",
    "prompt_solver": "repro.core.solvers",
    "few_shot_solver": "repro.core.solvers",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
