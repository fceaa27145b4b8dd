"""Chat-completion data types (SDK-shaped).

These mirror the common denominator of the OpenAI/Anthropic/Google SDKs
so that the harness code is provider-agnostic: messages in, one or more
choices out, token usage accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

Role = Literal["system", "user", "assistant"]


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a chat conversation."""

    role: Role
    content: str

    @staticmethod
    def user(content: str) -> "ChatMessage":
        return ChatMessage("user", content)

    @staticmethod
    def system(content: str) -> "ChatMessage":
        return ChatMessage("system", content)

    @staticmethod
    def assistant(content: str) -> "ChatMessage":
        return ChatMessage("assistant", content)


@dataclass(frozen=True)
class GenerateConfig:
    """Decoding parameters.

    The paper sets ``temperature=0.2`` and ``top_p=0.95`` for all models
    except o3 (whose API exposes neither); providers that ignore sampling
    parameters record that in the output's ``params_applied`` flag.
    ``seed`` selects the trial (epoch) for reproducible repetition.
    """

    temperature: float = 0.2
    top_p: float = 0.95
    max_tokens: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True)
class ModelUsage:
    """Token accounting for one generation."""

    input_tokens: int
    output_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    def as_dict(self) -> dict[str, int]:
        """JSON-ready form (used by the durable record codec)."""
        return {
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }

    @staticmethod
    def from_dict(payload: dict[str, int]) -> "ModelUsage":
        return ModelUsage(
            input_tokens=payload["input_tokens"],
            output_tokens=payload["output_tokens"],
        )


@dataclass
class ModelOutput:
    """One model response."""

    model: str
    completion: str
    usage: ModelUsage
    stop_reason: str = "stop"
    params_applied: bool = True  # False when the provider ignores temperature/top_p
    metadata: dict = field(default_factory=dict)
