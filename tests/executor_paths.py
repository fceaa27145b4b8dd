"""The executor-equivalence matrix shared by the runtime test modules.

Each entry of :data:`EXECUTOR_PATHS` is one way a sweep can reach the
model layer: ``serial`` (:class:`SerialExecutor`) and ``threads``
(:class:`ThreadExecutor`, units in flight on a thread pool).
"""

from __future__ import annotations

from repro.runtime import Executor, SerialExecutor, ThreadExecutor

EXECUTOR_PATHS = ("serial", "threads")


def executor_path(name: str, *, max_concurrency: int = 6) -> Executor:
    """The executor behind one entry of :data:`EXECUTOR_PATHS`."""
    if name == "serial":
        return SerialExecutor()
    assert name == "threads", name
    return ThreadExecutor(max_concurrency)
