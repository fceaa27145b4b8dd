"""LLM substrate: chat types, model registry, and the offline simulator.

The harness talks to models through the :class:`~repro.llm.api.ModelAPI`
protocol (``generate(messages, config) -> ModelOutput``), exactly the
surface a real SDK client would implement.  Offline, the registered
providers are four :class:`~repro.llm.simulated.SimulatedModel` instances
(``sim/o3``, ``sim/gemini-2.5-pro``, ``sim/claude-sonnet-4``,
``sim/llama-3.3-70b``) whose behaviour is produced by applying
knowledge-profile-driven corruption operators to reference artifacts,
calibrated against the paper's published scores (see DESIGN.md §2).

To evaluate a real endpoint instead, implement ``ModelAPI`` over your SDK
and register it with :func:`~repro.llm.api.register_model`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.llm.api import Model, ModelAPI, get_model, list_models, register_model
    from repro.llm.intent import Intent, analyze_prompt
    from repro.llm.simulated import SimulatedModel
    from repro.llm.types import ChatMessage, GenerateConfig, ModelOutput, ModelUsage

_EXPORTS = {  # public name -> defining module
    "ChatMessage": "repro.llm.types",
    "GenerateConfig": "repro.llm.types",
    "ModelOutput": "repro.llm.types",
    "ModelUsage": "repro.llm.types",
    "ModelAPI": "repro.llm.api",
    "Model": "repro.llm.api",
    "get_model": "repro.llm.api",
    "register_model": "repro.llm.api",
    "list_models": "repro.llm.api",
    "SimulatedModel": "repro.llm.simulated",
    "Intent": "repro.llm.intent",
    "analyze_prompt": "repro.llm.intent",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
