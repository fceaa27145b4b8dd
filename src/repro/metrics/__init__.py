"""Code-similarity metrics used by the paper: BLEU and ChrF.

Both metrics are implemented from scratch (sacrebleu is not available
offline) but follow the sacrebleu definitions:

* :func:`bleu` — mteval-13a tokenization, clipped n-gram precision up to
  order 4, brevity penalty, exponential smoothing for zero counts.
* :func:`chrf` — character n-grams of order 1..6, beta=2, whitespace
  removed prior to n-gram extraction.

Scores are returned in the 0..100 range, matching how the paper reports
them ("multiplied by a factor of 100").

These two are the oracle.  For hot paths that score many hypotheses
against one reference, :func:`compile_reference` the reference once and
score with the vectorized kernels :func:`bleu_kernel` /
:func:`chrf_kernel` (id-interned numpy n-gram counting at the paper's
settings; bit-equal to the oracle, several times faster per
hypothesis).
"""

from repro.metrics.bleu import BleuScore, bleu, corpus_bleu
from repro.metrics.chrf import ChrfScore, chrf, corpus_chrf
from repro.metrics.kernels import (
    CompiledReference,
    bleu_kernel,
    chrf_kernel,
    compile_reference,
)
from repro.metrics.stats import Aggregate, aggregate, mean, stderr
from repro.metrics.tokenizers import char_ngrams, ngrams, tokenize_13a

__all__ = [
    "BleuScore",
    "bleu",
    "corpus_bleu",
    "ChrfScore",
    "chrf",
    "corpus_chrf",
    "CompiledReference",
    "compile_reference",
    "bleu_kernel",
    "chrf_kernel",
    "Aggregate",
    "aggregate",
    "mean",
    "stderr",
    "tokenize_13a",
    "ngrams",
    "char_ngrams",
]
