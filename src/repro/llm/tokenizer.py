"""Subword-ish tokenizer for usage accounting.

A deterministic approximation of BPE token counts: words are split on
whitespace, then long words are chunked into 4-character pieces and
punctuation is counted separately.  This tracks real tokenizer counts
closely enough for usage statistics and max_tokens budgeting in the
simulator (it is *not* used by the similarity metrics, which have their
own mteval tokenizer).
"""

from __future__ import annotations

import re

_WORD_RE = re.compile(r"\w+|[^\w\s]")
_CHUNK = 4


def encode(text: str) -> list[str]:
    """Split text into pseudo-subword tokens."""
    tokens: list[str] = []
    for piece in _WORD_RE.findall(text):
        if len(piece) <= _CHUNK or not piece[0].isalnum():
            tokens.append(piece)
        else:
            tokens.extend(piece[i : i + _CHUNK] for i in range(0, len(piece), _CHUNK))
    return tokens


def count_tokens(text: str) -> int:
    """Number of pseudo-subword tokens in ``text`` (``len(encode(text))``)."""
    pieces = _WORD_RE.findall(text)
    # a chunked word of length n is (n - 1) // _CHUNK pieces more than one
    return len(pieces) + sum([
        (len(piece) - 1) // _CHUNK
        for piece in pieces
        if len(piece) > _CHUNK and piece[0].isalnum()
    ])
