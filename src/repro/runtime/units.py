"""Work units: the atoms of the parallel evaluation runtime.

A :class:`WorkUnit` is one independent model call — one (task, sample,
model, epoch) cell of a sweep, fully resolved at plan time: the prompt is
already rendered (solvers ran during planning), the decoding config
carries the epoch as its seed, and the scorer travels with the unit.
Because every source of randomness is derived from the unit's own content
(model name, prompt, seed), units may execute in any order, on any
executor, and produce bit-identical results.

The :func:`generation_key` of a unit is a content address over exactly
the inputs that determine a generation — (prompt, model, generate
config, seed) — and is what the result cache and the in-run deduplication
key on.  Scoring is *not* part of the key: a cached generation is
re-scored against each unit's own target, so the cache can be shared
across experiments that happen to issue the same prompt.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.core.samples import Sample, Score
from repro.llm.types import GenerateConfig, ModelUsage


def generation_key(prompt: str, model: str, config: GenerateConfig) -> str:
    """Content address of one generation: (prompt hash, model, config, seed).

    Stable across processes and platforms (SHA-256 over explicit fields,
    never Python's salted ``hash``), so a filesystem-backed cache written
    by one run is valid for any later run.
    """
    payload = "\x1f".join(
        (
            # surrogatepass: a prompt may carry lone surrogates (artifacts
            # decoded with errors="surrogateescape"); valid text hashes the
            # same bytes either way, so existing keys are unchanged
            hashlib.sha256(prompt.encode("utf-8", "surrogatepass")).hexdigest(),
            model,
            f"t={config.temperature!r}",
            f"p={config.top_p!r}",
            f"m={config.max_tokens!r}",
            f"s={config.seed!r}",
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True, eq=False)
class WorkUnit:
    """One independent generation+scoring call of a sweep.

    ``uid`` is unique within a plan (it includes the plan-assigned ordinal
    so the same cell added twice stays distinguishable); ``key`` is the
    content address shared by identical generations.
    """

    uid: str
    task_name: str
    sample: Sample  # solved: ``input`` is the final prompt
    model: str
    config: GenerateConfig  # seed == epoch index
    scorer: Callable[[str, str], Score]
    key: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "key", generation_key(self.sample.input, self.model, self.config)
        )

    @property
    def prompt(self) -> str:
        return self.sample.input

    @property
    def target(self) -> str:
        return self.sample.target

    @property
    def epoch(self) -> int:
        return self.config.seed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkUnit({self.uid!r}, model={self.model!r}, seed={self.config.seed})"


@dataclass(frozen=True)
class Generation:
    """The cacheable outcome of one model call (no scoring).

    ``elapsed_s`` is the wall-clock cost of the provider call that
    produced this generation; it sums into
    ``RunStats.generation_seconds``.  It is
    informational and never part of the content address.
    """

    key: str
    model: str
    completion: str
    usage: ModelUsage
    cached: bool = False
    elapsed_s: float = 0.0

    def as_cached(self) -> "Generation":
        """The same record, flagged as having come from a cache."""
        if self.cached:
            return self
        return Generation(
            key=self.key, model=self.model, completion=self.completion,
            usage=self.usage, cached=True, elapsed_s=self.elapsed_s,
        )


@dataclass(frozen=True)
class UnitResult:
    """One executed unit: the generation plus its score against the target."""

    uid: str
    generation: Generation
    score: Score

    @property
    def completion(self) -> str:
        return self.generation.completion
