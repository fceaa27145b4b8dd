"""Scorers: response post-processing + similarity metrics.

:class:`CodeSimilarityScorer` reproduces the paper's evaluation: extract
the code artifact from the model's markdown response, compare against the
reference with BLEU and ChrF (sacrebleu-equivalent implementations),
report both on the 0..100 scale.

Scoring goes through the vectorized kernel engine
(:mod:`repro.metrics.kernels`): the target is compiled once per
distinct reference content (LRU-shared process-wide), its n-gram
vocabulary is interned into numpy count arrays, and each completion is
scored with vectorized clipped-match counting — bit-equal to the plain
:func:`~repro.metrics.bleu` / :func:`~repro.metrics.chrf` calls it
replaces, several times faster per hypothesis.

The runner calls the scorer once per score-cache miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.samples import Score
from repro.errors import MetricError
from repro.metrics import bleu, chrf
from repro.metrics.kernels import (
    CompiledReference,
    bleu_kernel,
    chrf_kernel,
    compile_reference,
)
from repro.utils.text import strip_markdown_chatter

# reference implementations: the names a scorer may ask for, and the
# oracle the kernels are tested against
_METRIC_FNS: dict[str, Callable[[str, str], float]] = {
    "bleu": bleu,
    "chrf": chrf,
}

# the hot-path implementations actually used for scoring: vectorized
# kernels that fall back to the reference scorers per reference when
# its chained n-gram tables would exceed the kernels' table cap
_KERNEL_FNS: dict[str, Callable[[str, CompiledReference], float]] = {
    "bleu": bleu_kernel,
    "chrf": chrf_kernel,
}


@dataclass
class CodeSimilarityScorer:
    """BLEU + ChrF over the extracted code artifact."""

    metrics: tuple[str, ...] = ("bleu", "chrf")
    extractor: Callable[[str], str] = field(default=strip_markdown_chatter)

    def __post_init__(self) -> None:
        unknown = [m for m in self.metrics if m not in _METRIC_FNS]
        if unknown:
            raise MetricError(
                f"unknown metric(s) {unknown}; available: {sorted(_METRIC_FNS)}"
            )

    @property
    def fingerprint(self) -> tuple:
        """Stable identity for score memoization (see ``runtime.score_key``).

        Two scorer instances with the same metric tuple and the same
        extractor *object* produce identical scores, so they share
        score-cache entries across plans and runs.  The extractor
        callable itself is part of the key (not its name: distinct
        lambdas share a ``__qualname__`` but are different functions),
        and the reference the key holds keeps it alive while cached.
        """
        # tuple() because metrics may legally be passed as a list
        return ("code-similarity", tuple(self.metrics), self.extractor)

    def __call__(self, completion: str, target: str) -> Score:
        answer = self.extractor(completion)
        compiled = compile_reference(target)
        values = {
            name: float(_KERNEL_FNS[name](answer, compiled)) for name in self.metrics
        }
        return Score(values=values, answer=answer)

    def score_batch(self, completions: Sequence[str], target: str) -> list[Score]:
        # the runner scores one completion per call; this loop stays as a
        # stable patch site for the e2ebench layer harness
        return [self(completion, target) for completion in completions]
