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
   never saw get a sentinel id that cannot collide; an id is also the
   symbol's unigram index;
2. follow the reference's chained n-gram index tables, built once per
   reference: order n's table maps (the index of a gram's (n−1)-prefix
   among the reference's (n−1)-grams, the gram's last id) to the gram's
   index among the reference's n-grams, or to a miss value (the number
   of reference n-grams).  One gather per order,
   ``idx_n = table_n[idx_{n-1}[:-1] * width + ids[n-1:]]``, finds every
   n-gram of the hypothesis in the reference — a gram whose prefix
   missed, or that holds the sentinel, misses too;
3. histogram the indices with ``np.bincount`` and clip with
   ``np.minimum`` — the entire clipped-match computation for one order
   is a gather and two array ops instead of a Python loop.

The kernels are fixed to the paper's settings: sentence BLEU with 13a
tokens, orders 1..4 and ``exp`` smoothing; chrF with character orders
1..6, beta 2 and whitespace removed.  They produce the exact integer
match counts and totals of :func:`~repro.metrics.bleu.bleu` /
:func:`~repro.metrics.chrf.chrf` and repeat their float operations in
the same order, so scores are bit-equal to the reference scorers
(pinned with ``==`` in ``tests/test_metrics_kernels.py``).

A table holds one entry per (reference (n−1)-gram + miss, symbol id)
pair, so its size grows with the reference's alphabet.  When one would
exceed ``_TABLE_CAP`` entries (a reference with an enormous alphabet),
the reference is scored per hypothesis through :func:`bleu_compiled` /
:func:`chrf_compiled`, which are the reference scorers on
``reference.text`` — same scores, the reference speed.

One :class:`_Kernel` holds a reference's tables over symbol ids and
owns every count: :meth:`_Kernel.stats` scores one id stream whole,
:meth:`_Kernel.delta_stats` a run of streams by their edits.
:class:`_TokenKernel` (13a tokens, ids by first use) and
:class:`_CharKernel` (codepoints, ids by rank in the sorted alphabet)
only build the tables and map symbols to ids.

Simulator calibration (:class:`repro.llm.calibration.QualityCurve`)
scores a run of corruption depths whose texts differ by a line or two
each.  :meth:`_Kernel.delta_stats` takes each depth's removed and
added id windows (padded with ``max_order - 1`` unchanged context ids,
so grams wholly inside the context cancel) for a whole range query and
joins them with one sentinel id after each window: a gram that spans
two windows holds the sentinel, so it misses the reference.  Per order,
only the window grams that hit the reference are kept, as (gram, depth,
±1) events sorted by gram, then depth.  A ``cumsum`` restarted at every
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

# entries one chained n-gram table may hold; the largest table of a
# shipped reference holds ~74k
_TABLE_CAP = 2**20

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
        # "token" / "char" -> interned kernel, or False when its n-gram
        # tables would exceed the cap for this reference
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


def _build_tables(ids: "np.ndarray", width: int, max_order: int):
    """Chained n-gram index tables and gram counts of one reference.

    ``ids`` are the reference's symbol ids, ``0 .. width - 2``; the id
    ``width - 1`` is the sentinel.  Returns ``(tables, ref_counts)``:
    ``ref_counts[n-1][g]`` is how often the reference holds its n-gram
    ``g``, and ``tables[n-2]`` (orders 2 and up) maps ``prefix * width +
    id`` — ``prefix`` the (n−1)-prefix's gram index, or that order's miss
    value — to the n-gram's index, or to ``len(ref_counts[n-1])`` on a
    miss.  A unigram's index is its id, so order 1 needs no table.
    Raises :class:`OverflowError` past ``_TABLE_CAP`` entries.
    """
    ref_counts = [np.bincount(ids, minlength=width - 1)]
    tables = []
    idx = ids
    for order in range(2, max_order + 1):
        size = (len(ref_counts[-1]) + 1) * width
        if size > _TABLE_CAP:
            raise OverflowError(f"order-{order} n-gram table needs {size} entries")
        keys = idx[:-1] * width + ids[order - 1 :]
        uniq, idx, counts = np.unique(keys, return_inverse=True, return_counts=True)
        table = np.full(size, len(uniq), dtype=np.min_scalar_type(len(uniq)))
        table[uniq] = np.arange(len(uniq))
        tables.append(table)
        ref_counts.append(counts)
    return tables, ref_counts


def _gram_index(ids: "np.ndarray", tables, width: int) -> list:
    """Per order, the reference gram index of every n-gram of ``ids``.

    ``out[n-1][i]`` indexes the n-gram starting at ``i`` among the
    reference's n-grams, or is the order's miss value; one gather per
    order, keyed in ``intp``.
    """
    out = [ids]
    idx = ids
    for order, table in enumerate(tables, start=2):
        idx = table[idx[:-1].astype(np.intp, copy=False) * width + ids[order - 1 :]]
        out.append(idx)
    return out


def _matches(idx: "np.ndarray", ref_counts: "np.ndarray") -> int:
    """Clipped matches of one order's gram indices (misses fall in the last bin)."""
    grams = len(ref_counts)
    hyp_counts = np.bincount(idx, minlength=grams + 1)[:grams]
    return int(np.minimum(hyp_counts, ref_counts).sum())


class _Kernel:
    """Chained n-gram index tables of one reference, over symbol ids.

    ``width - 1`` is the sentinel id of a symbol the reference never
    holds.  The subclasses only build the tables and map their symbols
    (13a tokens, codepoints) to ids; every count comes from here.
    """

    __slots__ = ("width", "tables", "ref_counts")

    def __init__(self, ids: "np.ndarray", width: int, max_order: int) -> None:
        self.width = width
        self.tables, self.ref_counts = _build_tables(ids, width, max_order)

    def stats(self, ids: "np.ndarray") -> tuple[list[int], list[int]]:
        """Per-order (clipped matches, hypothesis n-gram totals) of ``ids``."""
        counts: list[int] = []
        totals: list[int] = []
        for idx, ref_counts in zip(_gram_index(ids, self.tables, self.width),
                                   self.ref_counts):
            counts.append(_matches(idx, ref_counts))
            totals.append(len(idx))
        return counts, totals

    def delta_stats(self, running, removed, added, lengths):
        """Per-order (matches, totals) arrays over consecutive depths.

        Depth ``j`` is the previous depth with the id window ``removed[j]``
        replaced by ``added[j]``; each window carries ``max_order - 1``
        unchanged context ids on both sides, so every gram that touches
        the change is in one window and grams wholly inside the context
        cancel.  ``running`` holds the hypothesis count of every reference
        gram, per order, at the depth before the first and is advanced to
        the last depth in place; ``lengths`` are the depths' symbol counts.
        Index ``[order][j]`` gives the same integers :meth:`stats` gives
        for depth ``j``'s whole id stream.

        The windows are scored as one id array with a single sentinel id
        after each: a gram spanning two windows holds it, so it misses
        the reference and counts for neither depth.

        The work scales with the window grams that hit the reference, not
        with depths × reference grams: each hit is a (gram, depth, ±1)
        event, and only the events' clipped-count changes are summed.
        """
        n = len(added)
        # window w < n is depth w's removal, w >= n depth w - n's addition
        sentinel = self.width - 1
        flat: list[int] = []
        for window in chain(removed, added):
            flat += window
            flat.append(sentinel)
        cat = np.array(flat, dtype=np.intp)
        owner = np.repeat(
            np.arange(2 * n, dtype=np.intp),
            np.fromiter(map(len, chain(removed, added)), dtype=np.intp, count=2 * n)
            + 1,
        )
        lengths = np.asarray(lengths, dtype=np.int64)
        counts = []
        totals = []
        for order, (idx, ref_counts, hyp_counts) in enumerate(
            zip(_gram_index(cat, self.tables, self.width), self.ref_counts, running),
            start=1,
        ):
            totals.append(np.maximum(lengths - order + 1, 0))
            grams = len(ref_counts)
            if grams == 0:
                counts.append(np.zeros(n, dtype=np.int64))
                continue
            base = int(np.minimum(hyp_counts, ref_counts).sum())
            # the positions whose gram is a reference gram
            hits = np.flatnonzero(idx != grams)
            if not len(hits):
                counts.append(np.full(n, base, dtype=np.int64))
                continue
            gram = idx[hits].astype(np.intp)
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


class _TokenKernel(_Kernel):
    """Token n-gram tables of one reference (BLEU side); ids by first use."""

    __slots__ = ("vocab",)

    def __init__(self, tokens: Sequence[str]) -> None:
        vocab: dict[str, int] = {}
        for token in tokens:
            if token not in vocab:
                vocab[token] = len(vocab)
        self.vocab = vocab
        ids = np.fromiter(
            (vocab[token] for token in tokens), dtype=np.intp, count=len(tokens)
        )
        super().__init__(ids, len(vocab) + 1, DEFAULT_MAX_ORDER)

    def token_ids(self, tokens: Iterable[str]) -> list[int]:
        """Token ids against the reference vocab (unknown -> sentinel).

        ``map`` over the bound ``dict.get`` keeps the per-token loop in C;
        a generator expression here was the top self-time in calibration.
        """
        return list(map(self.vocab.get, tokens, repeat(len(self.vocab))))


class _CharKernel(_Kernel):
    """Character n-gram tables of one reference (chrF side); ids by codepoint
    rank in the sorted alphabet."""

    __slots__ = ("alphabet",)

    def __init__(self, text: str) -> None:
        codepoints = _codepoints(text)
        self.alphabet = np.unique(codepoints)
        ids = np.searchsorted(self.alphabet, codepoints)
        super().__init__(ids, len(self.alphabet) + 1, DEFAULT_CHAR_ORDER)

    def _map_ids(self, codepoints: "np.ndarray") -> "np.ndarray":
        if len(self.alphabet) == 0:
            # empty reference alphabet: every hypothesis char is unknown
            return np.zeros(len(codepoints), dtype=np.intp)
        ids = np.searchsorted(self.alphabet, codepoints)
        np.clip(ids, 0, len(self.alphabet) - 1, out=ids)
        ids[self.alphabet[ids] != codepoints] = len(self.alphabet)  # sentinel
        return ids


def _kernel(ref: CompiledReference, kind: str, build) -> object | None:
    """``ref``'s interned ``kind`` kernel, built once by ``build()``.

    ``None`` when an n-gram table would exceed ``_TABLE_CAP`` for this
    reference; the caller then scores through the reference fallback.
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
    counts, totals = kernel.stats(np.array(kernel.token_ids(hyp_tokens), dtype=np.intp))
    return _bleu_exp(counts, totals, len(hyp_tokens), ref.ref_len)


def chrf_kernel(hypothesis: str, reference: CompiledReference | str) -> float:
    """Sentence chrF via the vectorized kernel (bit-equal to :func:`chrf`)."""
    ref = _compiled(reference)
    kernel = _char_kernel(ref)
    if kernel is None:
        return chrf_compiled(hypothesis, ref)
    counts, totals = kernel.stats(kernel._map_ids(_codepoints(hypothesis)))
    ref_totals = [int(grams.sum()) for grams in kernel.ref_counts]
    return _chrf_mean(zip(counts, totals, ref_totals))


def bleu_from_stats(counts, totals, sys_lens: Sequence[int], ref_len: int) -> list[float]:
    """Sentence BLEU per hypothesis from per-order (matches, totals) arrays.

    ``counts[order][h]`` / ``totals[order][h]`` as returned by
    :meth:`_Kernel.delta_stats`.
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
