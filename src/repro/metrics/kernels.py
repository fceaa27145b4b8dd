"""Vectorized metric kernels: id-interned n-gram counting over numpy.

The compiled engine (:mod:`repro.metrics.compiled`) already tokenizes
and counts each reference once, but every *hypothesis* still pays a
Python ``Counter`` build plus a dict-intersection per n-gram order —
per-hypothesis Python overhead that dominates the score-heavy sweeps.

This module interns each reference's n-gram vocabulary once into
id-indexed numpy count arrays on the :class:`CompiledReference`
(token orders for BLEU, character orders for chrF) and scores a
hypothesis with a handful of vectorized array operations:

1. map the hypothesis symbols (13a tokens / codepoints) to small
   integer ids against the reference vocabulary — symbols the reference
   never saw get a sentinel id that cannot collide;
2. pack every n-gram into one ``int64`` code positionally
   (``code_n = code_{n-1} * base + id``, ``base = |vocab| + 1``), a
   bijection for all orders at once, so exact n-gram identity becomes
   integer equality;
3. match against the reference's sorted unique codes with
   ``np.searchsorted``, histogram with ``np.bincount``, and clip with
   ``np.minimum`` — the entire clipped-match computation for one order
   is three array ops instead of a Python loop.

Numerical identity is by construction: the kernels produce the exact
same integer match counts and totals as the ``Counter`` path and then
do the *same* ``_compute_score`` / ``_fscore`` arithmetic, so scores
are bit-equal to :func:`bleu_compiled` / :func:`chrf_compiled`
(property-tested in ``tests/test_metrics_kernels.py``).

When packed codes would overflow 63-bit integers (``base**order >=
2**62``, i.e. a reference with an enormous alphabet), the kernel for
that reference silently falls back to the compiled path — same scores,
the old speed.  ``REPRO_METRIC_KERNELS=0``
disables the vectorized path globally (the escape hatch the equivalence
tests use to produce reference grids).

:func:`score_batch` scores a whole group of completions against one
target in a single call.  Its kernel backends
:func:`bleu_kernel_batch` / :func:`chrf_kernel_batch` go further than
amortizing reference compilation: all hypotheses are concatenated (with
out-of-vocabulary sentinel separators, which can never match a
reference n-gram) into **one** id array, packed once per order, and the
per-hypothesis clipped matches come out of a single fused
``np.bincount`` over ``(gram id, hypothesis)`` keys — the numpy
per-call overhead that dominates short hypotheses is paid once per
*group* per order instead of once per hypothesis.

Simulator calibration (:class:`repro.llm.calibration.QualityCurve`)
scores a run of corruption depths whose texts differ by a line or two
each.  :meth:`_TokenKernel.delta_stats` takes each depth's removed and
added id windows (padded with ``max_order - 1`` unchanged context ids,
so grams wholly inside the context cancel) for a whole range query and
joins them with the same sentinel separators.  Per order, only the
window grams that hit the reference are kept, as (gram, depth, ±1)
events sorted by gram, then depth.  A ``cumsum`` restarted at every
gram, on top of the running hypothesis counts, gives each event's count
``c``; the event changes its depth's clipped matches by
``min(c, ref) − min(c ∓ 1, ref)``, and a ``bincount`` by depth plus a
``cumsum`` over depths give every depth's matches.  These are the same
exact integers as scoring each text whole, at a cost that follows the
changed grams rather than depths × reference grams.

:func:`bleu_from_stats` turns such counts into scores; for the default
``exp`` smoothing it skips the ``BleuScore`` record and repeats
``_compute_score``'s float operations in the same order, so the scores
stay bit-equal.
"""

from __future__ import annotations

import math
import os
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.errors import MetricError
from repro.metrics.bleu import DEFAULT_MAX_ORDER, _brevity_penalty, _compute_score
from repro.metrics.chrf import DEFAULT_BETA, DEFAULT_CHAR_ORDER, _fscore
from repro.metrics.compiled import (
    CompiledReference,
    bleu_compiled,
    chrf_compiled,
    compile_reference,
)
from repro.metrics.tokenizers import tokenize_13a_cached

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scorers import Score

# packed codes live in int64; reserve a sign bit and one headroom bit
_CODE_LIMIT = 2**62


def kernels_enabled() -> bool:
    """Whether the vectorized path is active (not opted out)."""
    return os.environ.get("REPRO_METRIC_KERNELS", "") != "0"


def _pack_codes(ids: "np.ndarray", base: int, max_order: int) -> list:
    """Per-order arrays of packed n-gram codes (base-``base`` positional).

    ``out[n-1][i]`` is the integer code of the n-gram starting at ``i``;
    the packing is a bijection (every digit is ``< base``), so two
    n-grams share a code iff they are equal symbol-for-symbol.
    """
    out = [ids]
    codes = ids
    for order in range(2, max_order + 1):
        codes = codes[:-1] * base + ids[order - 1 :]
        out.append(codes)
    return out


def _clipped_counts(codes, vocab) -> int:
    """Vectorized clipped-match count of ``codes`` against one order's vocab."""
    uniq, ref_counts = vocab
    if len(codes) == 0 or len(uniq) == 0:
        return 0
    idx = np.searchsorted(uniq, codes)
    np.clip(idx, 0, len(uniq) - 1, out=idx)
    valid = uniq[idx] == codes
    if not valid.any():
        return 0
    hyp_counts = np.bincount(idx[valid], minlength=len(uniq))
    return int(np.minimum(hyp_counts, ref_counts).sum())


def _concat_with_separators(ids_list: list, base: int, max_order: int):
    """All hypotheses as one id array, plus per-position ownership.

    ``max_order - 1`` out-of-vocabulary sentinel digits (``base - 1``,
    an id no reference symbol carries) separate consecutive hypotheses,
    so any n-gram spanning a boundary contains a sentinel and can never
    equal a reference code — it contributes nothing, which makes the
    start-position ownership attribution safe for every counted gram.
    """
    n = len(ids_list)
    if not n:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    sep_len = max_order - 1
    parts = [np.full(sep_len, base - 1, dtype=np.int64)] * (2 * n - 1)
    parts[::2] = ids_list
    spans = np.fromiter(map(len, ids_list), dtype=np.int64, count=n)
    spans[:-1] += sep_len
    return np.concatenate(parts), np.repeat(np.arange(n, dtype=np.int64), spans)


def _batch_clipped_counts(codes, owner, vocab, n: int):
    """Per-hypothesis clipped matches of one order, in one fused bincount.

    The ``(gram id, hypothesis)`` pair is folded into a single integer
    key, histogrammed once, reshaped to a ``(grams, hypotheses)`` count
    matrix, clipped against the reference counts column-wise, and summed
    — the whole order for the whole group is a handful of array ops.
    """
    uniq, ref_counts = vocab
    if len(codes) == 0 or len(uniq) == 0:
        return np.zeros(n, dtype=np.int64)
    idx = np.searchsorted(uniq, codes)
    np.clip(idx, 0, len(uniq) - 1, out=idx)
    valid = uniq[idx] == codes
    if not valid.any():
        return np.zeros(n, dtype=np.int64)
    key = idx[valid] * n + owner[: len(codes)][valid]
    counts = np.bincount(key, minlength=len(uniq) * n).reshape(len(uniq), n)
    return np.minimum(counts, ref_counts[:, None]).sum(axis=0)


class _TokenKernel:
    """Interned token n-gram vocabulary of one reference (BLEU side)."""

    __slots__ = ("vocab", "base", "orders")

    def __init__(self, tokens: Sequence[str], max_order: int) -> None:
        vocab: dict[str, int] = {}
        for token in tokens:
            if token not in vocab:
                vocab[token] = len(vocab)
        self.vocab = vocab
        self.base = len(vocab) + 1  # +1: the out-of-vocabulary sentinel digit
        if self.base**max_order >= _CODE_LIMIT:
            raise OverflowError("packed token codes would overflow int64")
        ids = np.fromiter(
            (vocab[token] for token in tokens), dtype=np.int64, count=len(tokens)
        )
        self.orders = []
        for codes in _pack_codes(ids, self.base, max_order):
            self.orders.append(np.unique(codes, return_counts=True))

    def __getstate__(self):  # __slots__ classes need explicit pickle state
        return (self.vocab, self.base, self.orders)

    def __setstate__(self, state) -> None:
        self.vocab, self.base, self.orders = state

    def token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Token ids against the reference vocab (unknown -> sentinel).

        ``map`` over the bound ``dict.get`` keeps the per-token loop in C;
        a generator expression here was the top self-time in calibration.
        """
        return list(map(self.vocab.get, tokens, repeat(len(self.vocab))))

    def stats(self, hyp_tokens: Sequence[str]) -> tuple[list[int], list[int]]:
        """Per-order (clipped matches, hypothesis n-gram totals) for BLEU."""
        ids = np.array(self.token_ids(hyp_tokens), dtype=np.int64)
        counts: list[int] = []
        totals: list[int] = []
        for codes, vocab in zip(_pack_codes(ids, self.base, len(self.orders)),
                                self.orders):
            counts.append(_clipped_counts(codes, vocab))
            totals.append(len(codes))
        return counts, totals

    def batch_stats(self, hyp_token_lists: Sequence[Sequence[str]]):
        """Per-order (matches, totals) arrays over a whole hypothesis group.

        Index ``[order][h]`` gives hypothesis ``h``'s clipped matches /
        n-gram total for that order — the same integers ``stats`` would
        produce per hypothesis, computed with one set of array ops per
        order for the entire group.
        """
        ids_list = [np.array(self.token_ids(tokens), dtype=np.int64)
                    for tokens in hyp_token_lists]
        n = len(ids_list)
        max_order = len(self.orders)
        cat, owner = _concat_with_separators(ids_list, self.base, max_order)
        lengths = np.fromiter(
            (len(ids) for ids in ids_list), dtype=np.int64, count=n
        )
        counts = []
        totals = []
        for order, (codes, vocab) in enumerate(
            zip(_pack_codes(cat, self.base, max_order), self.orders), start=1
        ):
            counts.append(_batch_clipped_counts(codes, owner, vocab, n))
            totals.append(np.maximum(lengths - order + 1, 0))
        return counts, totals

    def delta_stats(self, running, removed, added, lengths):
        """Per-order (matches, totals) arrays over consecutive depths.

        Depth ``j`` is the previous depth with the id window ``removed[j]``
        replaced by ``added[j]``; each window carries ``max_order - 1``
        unchanged context ids on both sides, so every gram that touches
        the change is in one window and grams wholly inside the context
        cancel.  ``running`` holds the hypothesis count of every reference
        gram, per order, at the depth before the first and is advanced to
        the last depth in place; ``lengths`` are the depths' token counts.
        Index ``[order][j]`` gives the same integers :meth:`batch_stats`
        would produce for depth ``j``'s whole token stream.

        The work scales with the window grams that hit the reference, not
        with depths × reference grams: each hit is a (gram, depth, ±1)
        event, and only the events' clipped-count changes are summed.
        """
        n = len(added)
        max_order = len(self.orders)
        # every window followed by max_order - 1 sentinels, so no gram
        # spans two windows; window w < n is depth w's removal, w >= n
        # depth w - n's addition
        sep = [self.base - 1] * (max_order - 1)
        flat: list[int] = []
        for window in chain(removed, added):
            flat += window
            flat += sep
        cat = np.array(flat, dtype=np.int64)
        owner = np.repeat(
            np.arange(2 * n, dtype=np.int64),
            np.fromiter(map(len, chain(removed, added)), dtype=np.int64, count=2 * n)
            + len(sep),
        )
        lengths = np.asarray(lengths, dtype=np.int64)
        counts = []
        totals = []
        for order, (codes, (uniq, ref_counts), hyp_counts) in enumerate(
            zip(_pack_codes(cat, self.base, max_order), self.orders, running),
            start=1,
        ):
            totals.append(np.maximum(lengths - order + 1, 0))
            if len(uniq) == 0:
                counts.append(np.zeros(n, dtype=np.int64))
                continue
            base = int(np.minimum(hyp_counts, ref_counts).sum())
            idx = np.searchsorted(uniq, codes)
            np.minimum(idx, len(uniq) - 1, out=idx)
            # the positions whose gram is a reference gram
            hits = np.flatnonzero(uniq[idx] == codes)
            if not len(hits):
                counts.append(np.full(n, base, dtype=np.int64))
                continue
            gram = idx[hits]
            window = owner[hits]
            added_hit = window >= n
            depth = window - n * added_hit
            # events in (gram, depth) order; a gram's events within one
            # depth may come in any order, their clipped changes telescope
            perm = np.argsort(gram * n + depth)
            gram, depth = gram[perm], depth[perm]
            sign = np.where(added_hit[perm], 1, -1)
            # each event's count c: the gram's running count plus its
            # signed events so far (a cumsum restarted at every gram)
            new_gram = np.empty(len(gram), dtype=bool)
            new_gram[0] = True
            np.not_equal(gram[1:], gram[:-1], out=new_gram[1:])
            first = np.flatnonzero(new_gram)
            steps = np.cumsum(sign)
            offset = (steps[first] - sign[first])[np.cumsum(new_gram) - 1]
            c = hyp_counts[gram] + steps - offset
            ref = ref_counts[gram]
            gain = np.minimum(c, ref) - np.minimum(c - sign, ref)
            # float weights, but the sums are small integers: exact
            per_depth = np.bincount(depth, weights=gain, minlength=n)
            counts.append(base + np.cumsum(per_depth).astype(np.int64))
            # a gram's last event holds its count at the last depth
            last = np.empty_like(new_gram)
            last[-1] = True
            last[:-1] = new_gram[1:]
            hyp_counts[gram[last]] = c[last]
        return counts, totals


class _CharKernel:
    """Interned character n-gram vocabulary of one reference (chrF side)."""

    __slots__ = ("alphabet", "base", "remove_whitespace", "orders", "totals")

    def __init__(self, text: str, char_order: int, remove_whitespace: bool) -> None:
        self.remove_whitespace = remove_whitespace
        codepoints = self._codepoints(text)
        self.alphabet = np.unique(codepoints)
        self.base = len(self.alphabet) + 1
        if self.base**char_order >= _CODE_LIMIT:
            raise OverflowError("packed char codes would overflow int64")
        ids = np.searchsorted(self.alphabet, codepoints)
        self.orders = []
        self.totals: list[int] = []
        for codes in _pack_codes(ids, self.base, char_order):
            self.orders.append(np.unique(codes, return_counts=True))
            self.totals.append(len(codes))

    def __getstate__(self):
        return (self.alphabet, self.base, self.remove_whitespace,
                self.orders, self.totals)

    def __setstate__(self, state) -> None:
        (self.alphabet, self.base, self.remove_whitespace,
         self.orders, self.totals) = state

    def _codepoints(self, text: str) -> "np.ndarray":
        if self.remove_whitespace:
            text = "".join(text.split())
        # surrogatepass: lone surrogates must round-trip, not raise — the
        # Counter path counts them like any other character
        raw = text.encode("utf-32-le", "surrogatepass")
        return np.frombuffer(raw, dtype=np.uint32).astype(np.int64)

    def _map_ids(self, codepoints: "np.ndarray") -> "np.ndarray":
        if len(self.alphabet) == 0:
            # empty reference alphabet: every hypothesis char is unknown
            return np.zeros(len(codepoints), dtype=np.int64)
        ids = np.searchsorted(self.alphabet, codepoints)
        np.clip(ids, 0, len(self.alphabet) - 1, out=ids)
        ids[self.alphabet[ids] != codepoints] = len(self.alphabet)  # sentinel
        return ids

    def stats(self, hypothesis: str) -> list[tuple[int, int, int]]:
        """Per-order (matches, hyp total, ref total) for the chrF F-score."""
        ids = self._map_ids(self._codepoints(hypothesis))
        out: list[tuple[int, int, int]] = []
        for codes, vocab, ref_total in zip(
            _pack_codes(ids, self.base, len(self.orders)), self.orders, self.totals
        ):
            out.append((_clipped_counts(codes, vocab), len(codes), ref_total))
        return out

    def batch_stats(self, hypotheses: Sequence[str]):
        """Per-order (matches, hyp totals, ref total) over a whole group.

        ``[order]`` holds two arrays indexed by hypothesis plus the
        shared reference total — the same integers ``stats`` produces,
        one fused set of array ops per order for the entire group.
        """
        ids_list = [self._map_ids(self._codepoints(hyp)) for hyp in hypotheses]
        n = len(ids_list)
        char_order = len(self.orders)
        cat, owner = _concat_with_separators(ids_list, self.base, char_order)
        lengths = np.fromiter(
            (len(ids) for ids in ids_list), dtype=np.int64, count=n
        )
        out = []
        for order, (codes, vocab, ref_total) in enumerate(
            zip(_pack_codes(cat, self.base, char_order), self.orders, self.totals),
            start=1,
        ):
            matches = _batch_clipped_counts(codes, owner, vocab, n)
            out.append((matches, np.maximum(lengths - order + 1, 0), ref_total))
        return out


def _token_kernel(ref: CompiledReference, max_order: int) -> _TokenKernel | None:
    """The reference's interned token kernel (built once, memoized).

    Returns ``None`` when vectorization is unsupported for this
    reference (packed-code overflow) — callers fall back to the
    compiled path, which is numerically identical.
    """
    key = ("token", max_order)
    kernel = ref._kernels.get(key)
    if kernel is None:
        try:
            kernel = _TokenKernel(ref.tokens, max_order)
        except OverflowError:
            kernel = False
        ref._kernels[key] = kernel
    return kernel if kernel is not False else None


def _char_kernel(
    ref: CompiledReference, char_order: int, remove_whitespace: bool
) -> _CharKernel | None:
    key = ("char", char_order, remove_whitespace)
    kernel = ref._kernels.get(key)
    if kernel is None:
        try:
            kernel = _CharKernel(ref.text, char_order, remove_whitespace)
        except OverflowError:
            kernel = False
        ref._kernels[key] = kernel
    return kernel if kernel is not False else None


def bleu_kernel(
    hypothesis: str,
    reference: CompiledReference | str,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> float:
    """Sentence BLEU via the vectorized kernel (bit-equal to compiled).

    The clipped match counts and totals are exact integers computed by
    array operations instead of ``Counter`` intersections; the score
    combination is the shared ``_compute_score``, so the result is
    bit-identical to :func:`~repro.metrics.compiled.bleu_compiled`.
    """
    if smooth_method not in ("exp", "floor", "add-k", "none"):
        raise MetricError(f"unknown BLEU smoothing method: {smooth_method!r}")
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    kernel = _token_kernel(ref, max_order) if kernels_enabled() else None
    if kernel is None:
        return bleu_compiled(
            hypothesis,
            ref,
            max_order=max_order,
            smooth_method=smooth_method,
            smooth_value=smooth_value,
        )
    hyp_tokens = tokenize_13a_cached(hypothesis)
    counts, totals = kernel.stats(hyp_tokens)
    return _compute_score(
        counts, totals, len(hyp_tokens), ref.ref_len,
        smooth_method, smooth_value, max_order,
    ).score


def chrf_kernel(
    hypothesis: str,
    reference: CompiledReference | str,
    *,
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
    remove_whitespace: bool = True,
) -> float:
    """Sentence chrF via the vectorized kernel (bit-equal to compiled)."""
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    kernel = (
        _char_kernel(ref, char_order, remove_whitespace)
        if kernels_enabled()
        else None
    )
    if kernel is None:
        return chrf_compiled(
            hypothesis,
            ref,
            char_order=char_order,
            beta=beta,
            remove_whitespace=remove_whitespace,
        )
    per_order_f: list[float] = []
    for matches, hyp_count, ref_count in kernel.stats(hypothesis):
        if hyp_count == 0 and ref_count == 0:
            continue
        per_order_f.append(_fscore(matches, hyp_count, ref_count, beta))
    return 100.0 * (sum(per_order_f) / len(per_order_f)) if per_order_f else 0.0


def bleu_kernel_batch(
    hypotheses: Sequence[str],
    reference: CompiledReference | str,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> list[float]:
    """Sentence BLEU for a whole hypothesis group (bit-equal per element).

    One tokenization pass per hypothesis, then one set of vectorized
    array operations per order for the *entire group* — the per-call
    numpy overhead that makes single-hypothesis kernels a wash on short
    references is amortized across the batch.  Element ``i`` is exactly
    ``bleu_kernel(hypotheses[i], reference, ...)``.
    """
    if smooth_method not in ("exp", "floor", "add-k", "none"):
        raise MetricError(f"unknown BLEU smoothing method: {smooth_method!r}")
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    kernel = _token_kernel(ref, max_order) if kernels_enabled() else None
    if kernel is None:
        return [
            bleu_compiled(
                hyp,
                ref,
                max_order=max_order,
                smooth_method=smooth_method,
                smooth_value=smooth_value,
            )
            for hyp in hypotheses
        ]
    if not hypotheses:
        return []
    token_lists = [tokenize_13a_cached(hyp) for hyp in hypotheses]
    counts, totals = kernel.batch_stats(token_lists)
    return bleu_from_stats(
        counts, totals, [len(tokens) for tokens in token_lists], ref.ref_len,
        smooth_method=smooth_method, smooth_value=smooth_value,
    )


def bleu_from_stats(
    counts,
    totals,
    sys_lens: Sequence[int],
    ref_len: int,
    *,
    smooth_method: str = "exp",
    smooth_value: float | None = None,
) -> list[float]:
    """Sentence BLEU per hypothesis from per-order (matches, totals) arrays.

    ``counts[order][h]`` / ``totals[order][h]`` as returned by
    :meth:`_TokenKernel.batch_stats` or :meth:`_TokenKernel.delta_stats`.
    The exact integers go through :func:`_bleu_exp` for the default
    ``exp`` smoothing and through the shared ``_compute_score`` otherwise;
    both give the same floats.
    """
    rows = zip(
        zip(*(order_counts.tolist() for order_counts in counts)),
        zip(*(order_totals.tolist() for order_totals in totals)),
        sys_lens,
    )
    if smooth_method == "exp":
        return [
            _bleu_exp(hyp_counts, hyp_totals, sys_len, ref_len)
            for hyp_counts, hyp_totals, sys_len in rows
        ]
    max_order = len(counts)
    return [
        _compute_score(
            list(hyp_counts), list(hyp_totals), sys_len, ref_len,
            smooth_method, smooth_value, max_order,
        ).score
        for hyp_counts, hyp_totals, sys_len in rows
    ]


def _bleu_exp(counts, totals, sys_len: int, ref_len: int) -> float:
    """``_compute_score(..., "exp", ...).score`` without building a ``BleuScore``.

    The same float operations in the same order: the precisions up to
    the first order with no n-grams (the effective order), the builtin
    ``sum`` of their ``math.log``, ``math.exp``, the brevity penalty and
    the cap at 100.  Every exp-smoothed precision is positive, so the
    ``p <= 0`` guard of ``_compute_score`` never fires here.
    """
    if sys_len == 0 or ref_len == 0:
        return 0.0
    precisions = []
    smooth = 1.0
    for count, total in zip(counts, totals):
        if total == 0:
            break
        if count == 0:
            smooth *= 2.0
            precisions.append(100.0 / (smooth * total))
        else:
            precisions.append(100.0 * count / total)
    if not precisions:
        return 0.0
    score = math.exp(sum(map(math.log, precisions)) / len(precisions))
    score *= _brevity_penalty(sys_len, ref_len)
    return min(score, 100.0)


def chrf_kernel_batch(
    hypotheses: Sequence[str],
    reference: CompiledReference | str,
    *,
    char_order: int = DEFAULT_CHAR_ORDER,
    beta: float = DEFAULT_BETA,
    remove_whitespace: bool = True,
) -> list[float]:
    """Sentence chrF for a whole hypothesis group (bit-equal per element)."""
    ref = compile_reference(reference) if isinstance(reference, str) else reference
    kernel = (
        _char_kernel(ref, char_order, remove_whitespace)
        if kernels_enabled()
        else None
    )
    if kernel is None:
        return [
            chrf_compiled(
                hyp,
                ref,
                char_order=char_order,
                beta=beta,
                remove_whitespace=remove_whitespace,
            )
            for hyp in hypotheses
        ]
    if not hypotheses:
        return []
    stats = kernel.batch_stats(hypotheses)
    out: list[float] = []
    for i in range(len(hypotheses)):
        per_order_f: list[float] = []
        for matches, hyp_totals, ref_total in stats:
            hyp_count = int(hyp_totals[i])
            if hyp_count == 0 and ref_total == 0:
                continue
            per_order_f.append(_fscore(int(matches[i]), hyp_count, ref_total, beta))
        out.append(
            100.0 * (sum(per_order_f) / len(per_order_f)) if per_order_f else 0.0
        )
    return out


def score_batch(
    completions: Sequence[str],
    target: str,
    scorer: Callable[[str, str], "Score"],
) -> "list[Score]":
    """Score a whole unit-group of completions against one target.

    The batch is the amortization unit: a scorer exposing
    ``score_batch`` (e.g. :class:`~repro.core.scorers.CodeSimilarityScorer`)
    compiles the target and looks up its interned kernels once for the
    entire group; any other scorer is called per completion.  Results
    are element-wise identical to ``[scorer(c, target) for c in completions]``.
    """
    batch = getattr(scorer, "score_batch", None)
    if batch is not None:
        return batch(completions, target)
    return [scorer(completion, target) for completion in completions]
