"""ChrF: character n-gram F-score (Popović 2015), sacrebleu-compatible.

Precision and recall are computed per character-n-gram order 1..6 (with
whitespace removed, sacrebleu's default) and combined into a per-order
F-beta score with beta=2; the final score is the arithmetic mean over
orders, scaled to 0..100.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import MetricError
from repro.metrics.tokenizers import char_ngrams, clipped_matches

DEFAULT_CHAR_ORDER = 6
DEFAULT_BETA = 2.0


@dataclass
class ChrfScore:
    """ChrF decomposition: final score plus per-order F values."""

    score: float
    per_order_f: list[float]
    char_order: int
    beta: float

    def __float__(self) -> float:
        return self.score

    def format(self) -> str:
        return f"chrF{self.beta:g} = {self.score:.2f}"


def _order_statistics(
    hypothesis: str,
    references: Sequence[str],
    char_order: int,
    beta: float,
    remove_whitespace: bool,
) -> list[tuple[int, int, int]]:
    """Per order: (matches, hyp_count, ref_count) against the best-F-``beta`` reference."""
    stats: list[tuple[int, int, int]] = []
    for order in range(1, char_order + 1):
        hyp_grams = char_ngrams(hypothesis, order, remove_whitespace=remove_whitespace)
        best = (0, sum(hyp_grams.values()), 0)
        best_f = -1.0
        for ref in references:
            ref_grams = char_ngrams(ref, order, remove_whitespace=remove_whitespace)
            matches = clipped_matches(hyp_grams, ref_grams)
            h = sum(hyp_grams.values())
            r = sum(ref_grams.values())
            f = _fscore(matches, h, r, beta)
            if f > best_f:
                best_f = f
                best = (matches, h, r)
        stats.append(best)
    return stats


def _fscore(matches: int, hyp_count: int, ref_count: int, beta: float) -> float:
    precision = matches / hyp_count if hyp_count > 0 else 0.0
    recall = matches / ref_count if ref_count > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    beta2 = beta * beta
    return (1.0 + beta2) * precision * recall / (beta2 * precision + recall)


def corpus_chrf(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]] | Sequence[str],
    *,
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
    remove_whitespace: bool = True,
) -> ChrfScore:
    """Corpus chrF: per-order statistics summed over segments, then F-mean."""
    if len(hypotheses) == 0:
        raise MetricError("corpus_chrf requires at least one segment")
    norm_refs: list[Sequence[str]] = []
    for ref in references:
        norm_refs.append([ref] if isinstance(ref, str) else list(ref))
    if len(norm_refs) != len(hypotheses):
        raise MetricError(
            f"got {len(hypotheses)} hypotheses but {len(norm_refs)} reference sets"
        )

    totals = [(0, 0, 0)] * char_order
    for hyp, refs in zip(hypotheses, norm_refs):
        if not refs:
            raise MetricError("every hypothesis needs at least one reference")
        seg = _order_statistics(hyp, refs, char_order, beta, remove_whitespace)
        totals = [
            (tm + m, th + h, tr + r)
            for (tm, th, tr), (m, h, r) in zip(totals, seg)
        ]

    per_order_f: list[float] = []
    for matches, hyp_count, ref_count in totals:
        if hyp_count == 0 and ref_count == 0:
            continue
        per_order_f.append(_fscore(matches, hyp_count, ref_count, beta))
    score = 100.0 * (sum(per_order_f) / len(per_order_f)) if per_order_f else 0.0
    return ChrfScore(score, per_order_f, char_order, beta)


def chrf(
    hypothesis: str,
    reference: str | Sequence[str],
    *,
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
    remove_whitespace: bool = True,
) -> float:
    """Sentence-level chrF score (0..100)."""
    refs = [reference] if isinstance(reference, str) else list(reference)
    return corpus_chrf(
        [hypothesis],
        [refs],
        char_order=char_order,
        beta=beta,
        remove_whitespace=remove_whitespace,
    ).score
