"""The executor-equivalence matrix shared by the runtime test modules.

Each entry of :data:`EXECUTOR_PATHS` is one way a sweep can reach the
model layer: ``serial`` (:class:`SerialExecutor`), ``async``
(:class:`AsyncExecutor` on the registered simulator, which defines
``generate_batch``, so each model group is one batched call) and
``async-per-unit`` (the same executor with ``generate_batch`` hidden by
:class:`PerUnitProvider`, so it makes one call per unit).
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

from repro.llm.api import get_model, register_model
from repro.llm.profiles import ALL_PROFILES
from repro.runtime import AsyncExecutor, Executor, SerialExecutor

EXECUTOR_PATHS = ("serial", "async", "async-per-unit")

PAPER_MODELS = [f"sim/{model}" for model in ALL_PROFILES]


class PerUnitProvider:
    """A provider wrapper exposing only the per-unit ``generate`` call."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name

    def generate(self, messages, config):
        return self.inner.generate(messages, config)


@contextlib.contextmanager
def per_unit_models(names: Iterable[str] = PAPER_MODELS) -> Iterator[None]:
    """Hide ``generate_batch`` on the named models, then restore them."""
    originals = {name: get_model(name).provider for name in names}
    try:
        for name, inner in originals.items():
            wrapper = PerUnitProvider(inner)
            register_model(name, lambda wrapper=wrapper: wrapper)
        yield
    finally:
        for name, inner in originals.items():
            register_model(name, lambda inner=inner: inner)


@contextlib.contextmanager
def executor_path(name: str, *, max_concurrency: int = 6) -> Iterator[Executor]:
    """The executor behind one entry of :data:`EXECUTOR_PATHS`.

    The async executor's thread pool is closed, and hidden batch
    surfaces are restored, on exit.
    """
    if name == "serial":
        yield SerialExecutor()
        return
    with contextlib.ExitStack() as stack:
        if name == "async-per-unit":
            stack.enter_context(per_unit_models())
        else:
            assert name == "async", name
        yield stack.enter_context(AsyncExecutor(max_concurrency))
