"""The executor-equivalence matrix shared by the runtime test modules.

Each entry of :data:`EXECUTOR_PATHS` is one way a sweep can reach the
model layer: ``serial`` (:class:`SerialExecutor`) and ``async``
(:class:`AsyncExecutor`, one provider call per unit).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.runtime import AsyncExecutor, Executor, SerialExecutor

EXECUTOR_PATHS = ("serial", "async")


@contextlib.contextmanager
def executor_path(name: str, *, max_concurrency: int = 6) -> Iterator[Executor]:
    """The executor behind one entry of :data:`EXECUTOR_PATHS`.

    The async executor's thread pool is closed on exit.
    """
    if name == "serial":
        yield SerialExecutor()
        return
    assert name == "async", name
    with AsyncExecutor(max_concurrency) as executor:
        yield executor
