"""repro — reproduction of "Do Large Language Models Speak Scientific Workflows?"

Public surface (stable):

* :mod:`repro.metrics` — BLEU / ChrF / aggregation.
* :mod:`repro.llm` — model registry (``get_model``), chat types, the
  offline :class:`~repro.llm.simulated.SimulatedModel` provider.
* :mod:`repro.core` — the evaluation harness (tasks, solvers, scorers,
  ``evaluate``) and the paper's experiment builders.
* :mod:`repro.runtime` — the parallel evaluation runtime: sweeps flatten
  into work-unit plans executed on pluggable executors (serial, or a
  thread pool with up to ``max_concurrency`` provider calls in flight)
  behind a content-addressed result cache.
* :mod:`repro.workflows` — descriptors of ADIOS2, Henson, Parsl,
  PyCOMPSs and Wilkins: API surfaces, config parsers and the validators
  that audit generated artifacts against them.
* :mod:`repro.reporting` — table and heatmap renderers for every table
  and figure in the paper.
* :mod:`repro.persist`, :mod:`repro.serve` — the durable run store and
  the networked store server over it.

``import repro`` loads only the version.  The packages :mod:`repro.core`,
:mod:`repro.llm`, :mod:`repro.runtime` and :mod:`repro.serve` load each
re-exported name's module on first access, and :mod:`asyncio` loads only
in the store server, so each process loads the layers it runs: the
store server (``python -m repro.serve``) needs only the standard
library, and a storeless cold reproduction, on either executor, loads
neither asyncio nor the store client and server.
"""

from repro._version import __version__

__all__ = ["__version__"]
