"""The model protocol and the provider registry.

``get_model("sim/o3")`` returns a :class:`Model` wrapper around whichever
provider is registered under that name.  The four simulated paper models
self-register on import of :mod:`repro.llm.profiles`; a user evaluating a
real endpoint registers their own provider factory under a new name and
everything downstream (solvers, scorers, benches) works unchanged.

A provider implements one blocking method, :meth:`ModelAPI.generate`,
and the runtime makes one call per prompt.  Latency-bound providers
(real API endpoints) get concurrency from
:class:`~repro.runtime.executors.ThreadExecutor`, which keeps many of
those calls in flight on a thread pool.
"""

from __future__ import annotations

import threading
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.errors import ModelError, UnknownModelError
from repro.llm.types import ChatMessage, GenerateConfig, ModelOutput


@runtime_checkable
class ModelAPI(Protocol):
    """What a provider must implement."""

    name: str

    def generate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:  # pragma: no cover - protocol
        ...


class Model:
    """Thin convenience wrapper over a provider."""

    def __init__(self, provider: ModelAPI) -> None:
        self._provider = provider

    @property
    def name(self) -> str:
        return self._provider.name

    def generate(
        self,
        input: str | Sequence[ChatMessage],
        config: GenerateConfig | None = None,
    ) -> ModelOutput:
        """Generate from a plain prompt string or a full message list."""
        if isinstance(input, str):
            messages: Sequence[ChatMessage] = [ChatMessage.user(input)]
        else:
            messages = list(input)
        return self._provider.generate(messages, config or GenerateConfig())

    @property
    def provider(self) -> ModelAPI:
        return self._provider

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Model({self.name!r})"


_registry: dict[str, Callable[[], ModelAPI]] = {}
_instances: dict[str, ModelAPI] = {}
_lock = threading.Lock()


def register_model(name: str, factory: Callable[[], ModelAPI]) -> None:
    """Register a provider factory under ``name`` (idempotent overwrite)."""
    with _lock:
        _registry[name] = factory
        _instances.pop(name, None)


def register_instance(provider: ModelAPI) -> None:
    """Register a live provider under its own name (idempotent for the
    same instance).

    Lets a caller hand an unregistered provider instance to the harness
    (``evaluate(task, Model(MyProvider()))``): the runtime resolves
    models by name, so the instance must be reachable through the
    registry.  A name already bound to a *different* provider raises
    :class:`~repro.errors.ModelError` instead of silently rerouting
    every existing reference to that name.
    """
    _ensure_builtin_models()
    with _lock:
        if provider.name in _registry:
            current = _instances.get(provider.name)
            if current is None:
                current = _instances[provider.name] = _registry[provider.name]()
            if current is not provider:
                raise ModelError(
                    f"model name {provider.name!r} is already registered to a "
                    "different provider; pick a unique name or use "
                    "register_model() to overwrite explicitly"
                )
            return
        _registry[provider.name] = lambda: provider
        _instances[provider.name] = provider


def get_model(name: str) -> Model:
    """Instantiate (once) and return the model registered under ``name``."""
    _ensure_builtin_models()
    with _lock:
        if name not in _registry:
            raise UnknownModelError(
                f"unknown model {name!r}; registered: {sorted(_registry)}"
            )
        if name not in _instances:
            _instances[name] = _registry[name]()
        return Model(_instances[name])


def list_models() -> list[str]:
    """Names of all registered models."""
    _ensure_builtin_models()
    with _lock:
        return sorted(_registry)


def _ensure_builtin_models() -> None:
    # profile import self-registers the four simulated paper models
    import repro.llm.profiles  # noqa: F401
