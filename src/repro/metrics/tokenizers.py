"""Tokenization for similarity metrics.

:func:`tokenize_13a` reimplements the mteval-v13a tokenizer used by
sacrebleu's default BLEU configuration: language-independent punctuation
splitting with special handling of periods/commas adjacent to digits.
It is what the paper's BLEU numbers are computed with.

The hot-path implementation is heavily cached: the single-character
punctuation rule runs through ``str.translate`` instead of a regex, and
multi-line texts tokenize line-by-line through a per-line LRU so the
thousands of near-identical corrupted artifacts scored during
calibration re-tokenize only the lines that changed.  Equivalence with
the literal rule-by-rule implementation (:func:`_tokenize_13a_reference`)
is property-tested in ``tests/test_metrics_tokenizers.py``.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import chain
from typing import Sequence

# mteval-v13a language-independent tokenization patterns, applied in order.
_13A_RULES: list[tuple[re.Pattern[str], str]] = [
    # separate out punctuation (skip-able symbols and general punctuation)
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    # separate period/comma unless both neighbours are digits
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    # separate dash when preceded by a digit
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
]

_ENTITY_MAP = {
    "&quot;": '"',
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
}

# str.translate table equivalent to the first (single-character) rule:
# every char the class matches maps to itself wrapped in spaces.  A
# translate pass over the text is several times faster than a regex sub
# with a backreference template, and produces the identical string.
_RULE1_TABLE = {
    cp: f" {chr(cp)} " for cp in range(128) if _13A_RULES[0][0].match(chr(cp))
}


def _tokenize_flat(text: str) -> tuple[str, ...]:
    """Apply the 13a rules to a newline-free text."""
    for entity, char in _ENTITY_MAP.items():
        text = text.replace(entity, char)
    text = text.translate(_RULE1_TABLE)
    for pattern, repl in _13A_RULES[1:]:
        text = pattern.sub(repl, text)
    return tuple(text.split())


@lru_cache(maxsize=65536)
def _tokenize_segment(segment: str) -> tuple[str, ...]:
    """Per-line token cache (segments carry their boundary-space context)."""
    return _tokenize_flat(segment)


def tokenize_lines(
    lines: Sequence[str], *, first: bool = True, last: bool = True
) -> list[tuple[str, ...]] | None:
    """Per-line 13a tokens of consecutive lines of one ``"\\n"``-joined text.

    Every 13a rule is local (at most a two-character window) and line
    boundaries become plain spaces after the newline join, so tokenizing
    each line with an explicit space sentinel on its interior boundaries
    concatenates to exactly the whole-text token stream.  ``first`` /
    ``last`` say whether the run starts / ends the text, whose outer
    edges must stay contextless.

    Returns ``None`` when the text must be tokenized whole instead: a
    line holds ``\\r`` or ``\\n`` (the text's lines are not ``lines``),
    or a line other than the text's last ends in ``-`` (mteval joins
    end-of-line hyphenation across lines).
    """
    end = len(lines) - 1
    out = []
    for i, line in enumerate(lines):
        if "\r" in line or "\n" in line:
            return None
        if i < end or not last:
            if line.endswith("-"):
                return None
            line += " "
        if i or not first:
            line = " " + line
        out.append(_tokenize_segment(line))
    return out


@lru_cache(maxsize=4096)
def tokenize_13a_cached(text: str) -> tuple[str, ...]:
    """LRU-cached 13a tokenization, returned as an immutable tuple.

    Multi-line texts tokenize line-by-line (:func:`tokenize_lines`), so
    re-tokenizing a corrupted artifact that shares most lines with its
    predecessor is a handful of per-line cache hits.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    per_line = tokenize_lines(text.split("\n"))
    if per_line is None:
        return _tokenize_flat(text.replace("-\n", "").replace("\n", " "))
    return tuple(chain.from_iterable(per_line))


def tokenize_13a(text: str) -> list[str]:
    """Tokenize ``text`` following the mteval-v13a conventions.

    Backed by :func:`tokenize_13a_cached`; returns a fresh list each
    call so callers may mutate the result without corrupting the cache.

    >>> tokenize_13a('engine.put(var, data)')
    ['engine', '.', 'put', '(', 'var', ',', 'data', ')']
    """
    return list(tokenize_13a_cached(text))


def _tokenize_13a_reference(text: str) -> list[str]:
    """The literal mteval-v13a algorithm, uncached and rule-by-rule.

    Kept as the ground truth the cached fast path is property-tested
    against; never used on a hot path.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    # mteval: strip end-of-line hyphenation and join lines
    text = text.replace("-\n", "").replace("\n", " ")
    for entity, char in _ENTITY_MAP.items():
        text = text.replace(entity, char)
    for pattern, repl in _13A_RULES:
        text = pattern.sub(repl, text)
    return text.split()


def ngrams(tokens: Sequence[str], order: int) -> Counter:
    """Multiset of ``order``-grams over ``tokens`` (as tuples)."""
    if order <= 0:
        raise ValueError(f"n-gram order must be positive, got {order}")
    # zip of shifted slices emits the n-gram tuples at C speed (1-grams
    # included: zip over one slice yields 1-tuples, keeping keys uniform)
    return Counter(zip(*(tokens[i:] for i in range(order))))


def char_ngrams(text: str, order: int, *, remove_whitespace: bool = True) -> Counter:
    """Character n-gram multiset, optionally ignoring all whitespace (chrF default)."""
    if remove_whitespace:
        text = "".join(text.split())
    return Counter(text[i : i + order] for i in range(len(text) - order + 1))


def clipped_matches(hyp: Counter, ref: Counter) -> int:
    """Sum of per-n-gram matches clipped to the reference count."""
    get = ref.get
    total = 0
    for gram, count in hyp.items():
        r = get(gram, 0)
        total += count if count < r else r
    return total
