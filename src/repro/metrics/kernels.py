"""The metric engine: id-interned n-gram counting over numpy.

Every calibrated cell and every scored unit compares many hypotheses
against the *same* reference artifact.  :func:`compile_reference`
returns one shared :class:`CompiledReference` per reference text (an
LRU keyed by content hash); its 13a tokens are computed once and its
n-gram vocabulary is interned once into id-indexed numpy count arrays
(token orders for BLEU, character orders for chrF).  A hypothesis is
then scored with a handful of vectorized array operations:

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

The kernels are fixed to the paper's settings: sentence BLEU with 13a
tokens, orders 1..4 and ``exp`` smoothing; chrF with character orders
1..6, beta 2 and whitespace removed.  They produce the exact integer
match counts and totals of :func:`~repro.metrics.bleu.bleu` /
:func:`~repro.metrics.chrf.chrf` and repeat their float operations in
the same order, so scores are bit-equal to the reference scorers
(pinned with ``==`` in ``tests/test_metrics_kernels.py``).

When packed codes would overflow 63-bit integers (``base**order >=
2**62``, i.e. a reference with an enormous alphabet), the reference is
scored per hypothesis through :func:`bleu_compiled` /
:func:`chrf_compiled`, which are the reference scorers on
``reference.text`` — same scores, the reference speed.

:func:`bleu_kernel_batch` / :func:`chrf_kernel_batch` score a whole
group of hypotheses against one reference: all hypotheses are
concatenated (with out-of-vocabulary sentinel separators, which can
never match a reference n-gram) into **one** id array, packed once per
order, and the per-hypothesis clipped matches come out of a single
fused ``np.bincount`` over ``(gram id, hypothesis)`` keys — the numpy
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

:func:`bleu_from_stats` turns such counts into scores with
:func:`_bleu_exp`, which skips the ``BleuScore`` record and repeats
``_compute_score``'s ``exp``-smoothed float operations in the same
order, so the scores stay bit-equal.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from repro.metrics.bleu import DEFAULT_MAX_ORDER, _brevity_penalty, bleu
from repro.metrics.chrf import DEFAULT_BETA, DEFAULT_CHAR_ORDER, _fscore, chrf
from repro.metrics.tokenizers import tokenize_13a_cached

# packed codes live in int64; reserve a sign bit and one headroom bit
_CODE_LIMIT = 2**62

# compiled references the LRU keeps; each pins its interned vocabularies
_COMPILE_CACHE_CAPACITY = 512


class CompiledReference:
    """One reference artifact: its 13a tokens and interned kernels, built lazily.

    Fills are idempotent, so concurrent access from executor threads is
    safe without a lock.
    """

    __slots__ = ("text", "_tokens", "_kernels")

    def __init__(self, text: str) -> None:
        self.text = text
        self._tokens: tuple[str, ...] | None = None
        # "token" / "char" -> interned kernel, or False when packed codes
        # would overflow for this reference
        self._kernels: dict[str, object] = {}

    @property
    def tokens(self) -> tuple[str, ...]:
        if self._tokens is None:
            self._tokens = tokenize_13a_cached(self.text)
        return self._tokens

    @property
    def ref_len(self) -> int:
        return len(self.tokens)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledReference({self.text[:32]!r}..., ref_len={self.ref_len})"


_compile_lock = threading.Lock()
_compile_cache: OrderedDict[str, CompiledReference] = OrderedDict()


def compile_reference(text: str) -> CompiledReference:
    """The shared :class:`CompiledReference` for ``text`` (LRU by content hash).

    Keyed by the SHA-256 of the reference text rather than the text
    itself, so the key table stays small however large the artifacts
    are; the capacity bounds how many interned vocabularies a
    many-artifact sweep can pin at once.
    """
    # surrogatepass: artifacts decoded with errors="surrogateescape" may
    # carry lone surrogates; they must hash, not raise
    key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    with _compile_lock:
        ref = _compile_cache.get(key)
        if ref is None:
            ref = _compile_cache[key] = CompiledReference(text)
            while len(_compile_cache) > _COMPILE_CACHE_CAPACITY:
                _compile_cache.popitem(last=False)
        else:
            _compile_cache.move_to_end(key)
    return ref


def _compile_cache_clear() -> None:
    with _compile_lock:
        _compile_cache.clear()


def _compile_cache_len() -> int:
    with _compile_lock:
        return len(_compile_cache)


# lru_cache-compatible management surface (benches/tests call these)
compile_reference.cache_clear = _compile_cache_clear  # type: ignore[attr-defined]
compile_reference.cache_len = _compile_cache_len  # type: ignore[attr-defined]


def bleu_compiled(hypothesis: str, reference: CompiledReference) -> float:
    """The overflow fallback: reference sentence BLEU against ``reference``."""
    return bleu(hypothesis, reference.text)


def chrf_compiled(hypothesis: str, reference: CompiledReference) -> float:
    """The overflow fallback: reference sentence chrF against ``reference``."""
    return chrf(hypothesis, reference.text)


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

    def __init__(self, tokens: Sequence[str]) -> None:
        vocab: dict[str, int] = {}
        for token in tokens:
            if token not in vocab:
                vocab[token] = len(vocab)
        self.vocab = vocab
        self.base = len(vocab) + 1  # +1: the out-of-vocabulary sentinel digit
        if self.base**DEFAULT_MAX_ORDER >= _CODE_LIMIT:
            raise OverflowError("packed token codes would overflow int64")
        ids = np.fromiter(
            (vocab[token] for token in tokens), dtype=np.int64, count=len(tokens)
        )
        self.orders = []
        for codes in _pack_codes(ids, self.base, DEFAULT_MAX_ORDER):
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


def _codepoints(text: str) -> "np.ndarray":
    """The codepoints of ``text`` with all whitespace removed (chrF)."""
    # surrogatepass: lone surrogates must be counted like any other
    # character, as the reference chrF counts them, not raise
    raw = "".join(text.split()).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(raw, dtype=np.uint32).astype(np.int64)


class _CharKernel:
    """Interned character n-gram vocabulary of one reference (chrF side)."""

    __slots__ = ("alphabet", "base", "orders", "totals")

    def __init__(self, text: str) -> None:
        codepoints = _codepoints(text)
        self.alphabet = np.unique(codepoints)
        self.base = len(self.alphabet) + 1
        if self.base**DEFAULT_CHAR_ORDER >= _CODE_LIMIT:
            raise OverflowError("packed char codes would overflow int64")
        ids = np.searchsorted(self.alphabet, codepoints)
        self.orders = []
        self.totals: list[int] = []
        for codes in _pack_codes(ids, self.base, DEFAULT_CHAR_ORDER):
            self.orders.append(np.unique(codes, return_counts=True))
            self.totals.append(len(codes))

    def __getstate__(self):
        return (self.alphabet, self.base, self.orders, self.totals)

    def __setstate__(self, state) -> None:
        self.alphabet, self.base, self.orders, self.totals = state

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
        ids = self._map_ids(_codepoints(hypothesis))
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
        ids_list = [self._map_ids(_codepoints(hyp)) for hyp in hypotheses]
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


def _kernel(ref: CompiledReference, kind: str, build) -> object | None:
    """``ref``'s interned ``kind`` kernel, built once by ``build()``.

    ``None`` when packed codes would overflow for this reference; the
    caller then scores through the reference fallback.
    """
    kernel = ref._kernels.get(kind)
    if kernel is None:
        try:
            kernel = build()
        except OverflowError:
            kernel = False
        ref._kernels[kind] = kernel
    return kernel if kernel is not False else None


def _token_kernel(ref: CompiledReference) -> _TokenKernel | None:
    return _kernel(ref, "token", lambda: _TokenKernel(ref.tokens))


def _char_kernel(ref: CompiledReference) -> _CharKernel | None:
    return _kernel(ref, "char", lambda: _CharKernel(ref.text))


def _compiled(reference: CompiledReference | str) -> CompiledReference:
    return compile_reference(reference) if isinstance(reference, str) else reference


def bleu_kernel(hypothesis: str, reference: CompiledReference | str) -> float:
    """Sentence BLEU via the vectorized kernel (bit-equal to :func:`bleu`)."""
    ref = _compiled(reference)
    kernel = _token_kernel(ref)
    if kernel is None:
        return bleu_compiled(hypothesis, ref)
    hyp_tokens = tokenize_13a_cached(hypothesis)
    counts, totals = kernel.stats(hyp_tokens)
    return _bleu_exp(counts, totals, len(hyp_tokens), ref.ref_len)


def chrf_kernel(hypothesis: str, reference: CompiledReference | str) -> float:
    """Sentence chrF via the vectorized kernel (bit-equal to :func:`chrf`)."""
    ref = _compiled(reference)
    kernel = _char_kernel(ref)
    if kernel is None:
        return chrf_compiled(hypothesis, ref)
    return _chrf_mean(kernel.stats(hypothesis))


def bleu_kernel_batch(
    hypotheses: Sequence[str], reference: CompiledReference | str
) -> list[float]:
    """Sentence BLEU for a whole hypothesis group (bit-equal per element).

    One tokenization pass per hypothesis, then one set of vectorized
    array operations per order for the *entire group* — the per-call
    numpy overhead that makes single-hypothesis kernels a wash on short
    references is amortized across the batch.  Element ``i`` is exactly
    ``bleu_kernel(hypotheses[i], reference)``.
    """
    ref = _compiled(reference)
    kernel = _token_kernel(ref)
    if kernel is None:
        return [bleu_compiled(hyp, ref) for hyp in hypotheses]
    if not hypotheses:
        return []
    token_lists = [tokenize_13a_cached(hyp) for hyp in hypotheses]
    counts, totals = kernel.batch_stats(token_lists)
    return bleu_from_stats(
        counts, totals, [len(tokens) for tokens in token_lists], ref.ref_len
    )


def bleu_from_stats(counts, totals, sys_lens: Sequence[int], ref_len: int) -> list[float]:
    """Sentence BLEU per hypothesis from per-order (matches, totals) arrays.

    ``counts[order][h]`` / ``totals[order][h]`` as returned by
    :meth:`_TokenKernel.batch_stats` or :meth:`_TokenKernel.delta_stats`.
    """
    rows = zip(
        zip(*(order_counts.tolist() for order_counts in counts)),
        zip(*(order_totals.tolist() for order_totals in totals)),
        sys_lens,
    )
    return [
        _bleu_exp(hyp_counts, hyp_totals, sys_len, ref_len)
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
    hypotheses: Sequence[str], reference: CompiledReference | str
) -> list[float]:
    """Sentence chrF for a whole hypothesis group (bit-equal per element)."""
    ref = _compiled(reference)
    kernel = _char_kernel(ref)
    if kernel is None:
        return [chrf_compiled(hyp, ref) for hyp in hypotheses]
    if not hypotheses:
        return []
    stats = kernel.batch_stats(hypotheses)
    ref_totals = [ref_total for _, _, ref_total in stats]
    return [
        _chrf_mean(zip(matches, hyp_totals, ref_totals))
        for matches, hyp_totals in zip(
            zip(*(matches.tolist() for matches, _, _ in stats)),
            zip(*(hyp_totals.tolist() for _, hyp_totals, _ in stats)),
        )
    ]


def _chrf_mean(stats: Iterable[tuple[int, int, int]]) -> float:
    """chrF from per-order (matches, hyp total, ref total): the mean F-beta.

    Orders with neither hypothesis nor reference n-grams are skipped, as
    the reference :func:`chrf` skips them.
    """
    per_order_f = [
        _fscore(matches, hyp_count, ref_count, DEFAULT_BETA)
        for matches, hyp_count, ref_count in stats
        if hyp_count or ref_count
    ]
    return 100.0 * (sum(per_order_f) / len(per_order_f)) if per_order_f else 0.0
