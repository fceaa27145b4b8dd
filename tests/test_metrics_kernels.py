"""Vectorized metric kernels: equivalence, fallbacks, pickling, cache.

The kernels must be bit-equal (``==``) to the reference ``bleu``/``chrf``
scorers across unicode, lone-surrogate, empty and whitespace-only
inputs, the chained n-gram tables must index every n-gram as
brute-force matching does, the per-depth deltas must equal counting
each depth whole on both symbol kinds, a reference whose tables would exceed the cap must be scored
through the ``bleu_compiled``/``chrf_compiled`` fallbacks, the tables
must survive pickling, and the content-hash compile cache must evict
least-recently-used references beyond its capacity.
"""

from __future__ import annotations

import importlib
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.metrics.kernels as kernels
from repro.core.scorers import CodeSimilarityScorer
from repro.metrics import bleu, chrf
from repro.metrics.bleu import _compute_score, corpus_bleu
from repro.metrics.chrf import DEFAULT_CHAR_ORDER
from repro.metrics.kernels import (
    CompiledReference,
    _CharKernel,
    _codepoints,
    _gram_index,
    _TokenKernel,
    bleu_from_stats,
    bleu_kernel,
    chrf_kernel,
    compile_reference,
)
from repro.metrics.tokenizers import tokenize_13a

ascii_text = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")),
    min_size=0,
    max_size=200,
)
unicode_text = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)),
    min_size=0,
    max_size=120,
)
word_text = st.lists(
    st.text(alphabet="abcdefgh.,-0123456789", min_size=1, max_size=6),
    min_size=1,
    max_size=40,
).map(" ".join)
multiline_text = st.lists(ascii_text, min_size=1, max_size=8).map("\n".join)
EDGE_CASES = [
    "",
    " ",
    "   ",
    "\n\n",
    "\t \n",
    "x",
    "engine.put(var, data)",
    "ünïcode é 世界 🎉",
    "\ud800 lone surrogate",
    "a" * 300,
]


class TestBleuKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=ascii_text, ref=word_text)
    def test_matches_reference_bleu(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(hyp, ref)

    @settings(max_examples=60, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_matches_on_unicode(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(hyp, ref)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text)
    def test_matches_on_multiline_artifacts(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(hyp, ref)

    @pytest.mark.parametrize("hyp", EDGE_CASES)
    @pytest.mark.parametrize("ref", EDGE_CASES)
    def test_edge_case_pairs_bit_equal_to_reference(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(hyp, ref)

    def test_accepts_precompiled_object(self):
        ref = compile_reference("engine.put(var, data)")
        assert bleu_kernel("engine.put(var, data)", ref) == pytest.approx(100.0)

    @settings(max_examples=40, deadline=None)
    @given(hyp=ascii_text, ref=word_text)
    def test_fixed_to_paper_settings(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(
            hyp, ref, max_order=4, smooth_method="exp", smooth_value=None
        )


class TestChrfKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=ascii_text, ref=word_text)
    def test_matches_reference_chrf(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf(hyp, ref)

    @settings(max_examples=60, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_matches_on_unicode(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf(hyp, ref)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text)
    def test_matches_on_multiline_artifacts(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf(hyp, ref)

    @pytest.mark.parametrize("hyp", EDGE_CASES)
    @pytest.mark.parametrize("ref", EDGE_CASES)
    def test_edge_case_pairs_bit_equal_to_reference(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf(hyp, ref)

    def test_accepts_precompiled_object(self):
        ref = compile_reference("engine.put(var, data)")
        assert chrf_kernel("engine.put(var, data)", ref) == pytest.approx(100.0)
        assert chrf_kernel("engine.get(var)", ref) == chrf(
            "engine.get(var)", "engine.put(var, data)"
        )

    @settings(max_examples=40, deadline=None)
    @given(hyp=ascii_text, ref=word_text)
    def test_fixed_to_paper_settings(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf(
            hyp, ref, char_order=6, beta=2.0, remove_whitespace=True
        )


# >1290 unique codepoints: the alphabet's base**6 reaches the packed-code
# limit, so the reference has no char kernel
WIDE_ALPHABET = "".join(chr(cp) for cp in range(0x4E00, 0x5380))
# ~47k distinct tokens: base**4 reaches the limit, so no token kernel
WIDE_VOCAB = "\n".join(
    " ".join(f"w{line}x{i}" for i in range(470)) for line in range(100)
)


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts of scores that went through each overflow fallback."""
    calls = {"bleu": 0, "chrf": 0}
    for name in calls:
        real = getattr(kernels, f"{name}_compiled")

        def counted(hyp, ref, name=name, real=real):
            calls[name] += 1
            return real(hyp, ref)

        monkeypatch.setattr(kernels, f"{name}_compiled", counted)
    return calls


class TestKernelFallbacks:
    def test_char_code_overflow_falls_back_to_reference(self, fallback_calls):
        ref = compile_reference(WIDE_ALPHABET)
        hyp = WIDE_ALPHABET[:64]
        assert chrf_kernel(hyp, ref) == chrf(hyp, WIDE_ALPHABET)
        assert ref._kernels["char"] is False
        # BLEU's token side is unaffected (one unique token)
        assert bleu_kernel(hyp, ref) == bleu(hyp, WIDE_ALPHABET)
        assert fallback_calls == {"bleu": 0, "chrf": 1}

    def test_token_code_overflow_falls_back_to_reference(self, fallback_calls):
        ref = compile_reference(WIDE_VOCAB)
        hyp = WIDE_VOCAB[:4000]
        assert bleu_kernel(hyp, ref) == bleu(hyp, WIDE_VOCAB)
        assert ref._kernels["token"] is False
        assert fallback_calls == {"bleu": 1, "chrf": 0}

    @settings(max_examples=40, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_bleu_fallback_equals_reference(self, hyp, ref):
        assert kernels.bleu_compiled(hyp, CompiledReference(ref)) == bleu(hyp, ref)

    @settings(max_examples=40, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_chrf_fallback_equals_reference(self, hyp, ref):
        assert kernels.chrf_compiled(hyp, CompiledReference(ref)) == chrf(hyp, ref)

    def test_scorer_scores_overflowing_target_through_fallbacks(self, fallback_calls):
        scorer = CodeSimilarityScorer()
        completions = [WIDE_ALPHABET[:64], WIDE_ALPHABET[:8] + " x"]
        single = [scorer(c, WIDE_ALPHABET) for c in completions]
        assert [s.values for s in single] == [
            {"bleu": bleu(c, WIDE_ALPHABET), "chrf": chrf(c, WIDE_ALPHABET)}
            for c in completions
        ]
        assert scorer.score_batch(completions, WIDE_ALPHABET) == single
        # chrF overflows on both paths; BLEU's one-token vocabulary does not
        assert fallback_calls == {"bleu": 0, "chrf": 4}

    def test_overflow_marker_survives_pickling(self, fallback_calls):
        ref = compile_reference(WIDE_ALPHABET)
        chrf_kernel("", ref)
        clone = pickle.loads(pickle.dumps(ref))
        assert clone._kernels["char"] is False
        hyp = WIDE_ALPHABET[:64]
        assert chrf_kernel(hyp, clone) == chrf(hyp, WIDE_ALPHABET)
        assert fallback_calls == {"bleu": 0, "chrf": 2}

    def test_kernel_built_once_per_reference(self):
        ref = compile_reference("alpha beta gamma alpha")
        bleu_kernel("alpha beta", ref)
        kernel = ref._kernels["token"]
        bleu_kernel("gamma delta", ref)
        assert ref._kernels["token"] is kernel

    def test_scoring_does_not_pollute_reference_state(self):
        ref = compile_reference("alpha beta gamma")
        bleu_kernel("delta epsilon", ref)
        before = {key: kern for key, kern in ref._kernels.items()}
        bleu_kernel("zeta eta theta", ref)
        chrf_kernel("iota kappa", ref)
        for key, kern in before.items():
            assert ref._kernels[key] is kern


_DELTA_ALPHABET = ("a", "b", "c", "d", "z")  # "z": never in a reference


def _delta_walk(start, edits, context):
    """Streams and (removed, added) windows of a stream edited depth by depth.

    Windows are cut like the calibration walk cuts them: the replaced
    span plus ``context`` unchanged ids on each side.  The first depth
    comes from the empty stream, so its removed window is empty.
    """
    stream: list[str] = []
    streams, removed, added = [], [], []
    for start_at, stop_at, new in [(0, 0, start), *edits]:
        head = min(start_at, len(stream))
        tail = min(max(stop_at, head), len(stream))
        left, right = max(0, head - context), tail + context
        removed.append(stream[left:right])
        added.append(stream[left:head] + new + stream[tail:right])
        stream = stream[:head] + new + stream[tail:]
        streams.append(stream)
    return streams, removed, added


def _ngrams(symbols, order):
    return [tuple(symbols[i : i + order]) for i in range(len(symbols) - order + 1)]


def _table_walk(kernel, gram_ids):
    """A gram's index, one scalar table lookup per order after the first."""
    idx = gram_ids[0]
    for table, symbol in zip(kernel.tables, gram_ids[1:]):
        idx = int(table[idx * kernel.width + symbol])
    return idx


def _gram_counts(kernel, ids, ref_symbols, symbols):
    """Per-order counts in ``symbols`` of every reference gram, by tuple."""
    out = []
    for order, ref_counts in enumerate(kernel.ref_counts, start=1):
        in_stream = Counter(_ngrams(symbols, order))
        counts = np.zeros(len(ref_counts), dtype=np.int64)
        for gram in set(_ngrams(ref_symbols, order)):
            counts[_table_walk(kernel, ids(gram))] = in_stream[gram]
        out.append(counts)
    return out


def _check_gram_index(kernel, ref_symbols, ref_ids, hyp_symbols, hyp_ids):
    """Each order's gram indices equal brute-force n-gram tuple matching.

    The reference's own grams must get one index per distinct tuple,
    covering ``0 .. G-1`` with their reference counts; a hypothesis gram
    must get its equal reference gram's index, or the miss value ``G``.
    """
    ref_index = _gram_index(ref_ids, kernel.tables, kernel.width)
    hyp_index = _gram_index(hyp_ids, kernel.tables, kernel.width)
    assert len(ref_index) == len(hyp_index) == len(kernel.ref_counts)
    for order, ref_counts in enumerate(kernel.ref_counts, start=1):
        ref_grams = _ngrams(ref_symbols, order)
        label = dict(zip(ref_grams, ref_index[order - 1].tolist()))
        assert [label[gram] for gram in ref_grams] == ref_index[order - 1].tolist()
        assert sorted(label.values()) == list(range(len(ref_counts)))
        in_ref = Counter(ref_grams)
        assert ref_counts.tolist() == [in_ref[gram]
                                       for gram in sorted(label, key=label.get)]
        miss = len(ref_counts)
        assert hyp_index[order - 1].tolist() == [
            label.get(gram, miss) for gram in _ngrams(hyp_symbols, order)
        ]


class TestGramIndex:
    """The chained tables index every n-gram as brute-force matching does."""

    @settings(max_examples=150, deadline=None)
    @given(
        ref_tokens=st.lists(st.sampled_from(_DELTA_ALPHABET[:4]), max_size=12),
        # "z" is never in a reference: it maps to the sentinel id
        hyp_tokens=st.lists(st.sampled_from(_DELTA_ALPHABET), max_size=30),
    )
    @example(ref_tokens=[], hyp_tokens=["a", "z"])
    @example(ref_tokens=["a", "b"], hyp_tokens=[])
    def test_token_kernel(self, ref_tokens, hyp_tokens):
        kernel = _TokenKernel(ref_tokens)
        ref_ids, hyp_ids = (np.array(kernel.token_ids(tokens), dtype=np.intp)
                            for tokens in (ref_tokens, hyp_tokens))
        _check_gram_index(kernel, ref_tokens, ref_ids, hyp_tokens, hyp_ids)

    @settings(max_examples=150, deadline=None)
    @given(
        ref=st.text(alphabet="abcd ", max_size=20),
        # "z" and "é" are never in a reference: they map to the sentinel id
        hyp=st.text(alphabet="abcdzé \n", max_size=40),
    )
    @example(ref="", hyp="abz")
    @example(ref="ab ab", hyp="")
    def test_char_kernel(self, ref, hyp):
        kernel = _CharKernel(ref)
        ref_ids, hyp_ids = (kernel._map_ids(_codepoints(text)) for text in (ref, hyp))
        ref_chars, hyp_chars = ("".join(text.split()) for text in (ref, hyp))
        _check_gram_index(kernel, ref_chars, ref_ids, hyp_chars, hyp_ids)

    def test_tables_use_the_smallest_unsigned_dtype(self):
        kernel = _TokenKernel([f"t{i}" for i in range(300)])
        # 299 bigrams: the miss value 299 needs 16 bits
        assert kernel.tables[0].dtype == np.uint16
        assert _TokenKernel(["a", "b", "a"]).tables[0].dtype == np.uint8


class TestTableCap:
    """A reference whose largest table passes ``_TABLE_CAP`` falls back."""

    # n distinct symbols, each once: the order-2 table holds (n + 1)**2
    # entries, exactly the cap at n = 1023
    AT_CAP = 1023

    @staticmethod
    def _tokens(n):
        return " ".join(f"t{i}" for i in range(n))

    @staticmethod
    def _chars(n):
        return "".join(chr(cp) for cp in range(0x4E00, 0x4E00 + n))

    def test_reference_at_the_cap_keeps_its_kernels(self, fallback_calls):
        assert (self.AT_CAP + 1) ** 2 == kernels._TABLE_CAP
        for text, kind in ((self._tokens(self.AT_CAP), "token"),
                           (self._chars(self.AT_CAP), "char")):
            ref = compile_reference(text)
            hyp = text[: len(text) // 3]
            assert bleu_kernel(hyp, ref) == bleu(hyp, text)
            assert chrf_kernel(hyp, ref) == chrf(hyp, text)
            kernel = ref._kernels[kind]
            assert max(table.size for table in kernel.tables) == kernels._TABLE_CAP
        assert fallback_calls == {"bleu": 0, "chrf": 0}

    def test_reference_just_over_the_cap_falls_back(self, fallback_calls):
        tokens = self._tokens(self.AT_CAP + 1)
        ref = compile_reference(tokens)
        hyps = [tokens[:900], "", tokens[-300:] + " t5 t6"]
        assert [bleu_kernel(hyp, ref) for hyp in hyps] == [
            bleu(hyp, tokens) for hyp in hyps
        ]
        assert ref._kernels["token"] is False
        chars = self._chars(self.AT_CAP + 1)
        ref = compile_reference(chars)
        hyps = [chars[:200], "", chars[::-3]]
        assert [chrf_kernel(hyp, ref) for hyp in hyps] == [
            chrf(hyp, chars) for hyp in hyps
        ]
        assert ref._kernels["char"] is False
        assert fallback_calls == {"bleu": 3, "chrf": 3}


_edit = st.tuples(
    st.integers(0, 40),
    st.integers(0, 40),
    st.lists(st.sampled_from(_DELTA_ALPHABET), max_size=6),
)


# the two symbol kinds one ``delta_stats`` serves, each as (kernel from
# reference symbols, symbol ids against a kernel); a char symbol is one
# non-whitespace character
_KINDS = {
    "token": (_TokenKernel, _TokenKernel.token_ids),
    "char": (
        lambda symbols: _CharKernel("".join(symbols)),
        lambda kernel, symbols: kernel._map_ids(_codepoints("".join(symbols))).tolist(),
    ),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
class TestDeltaStats:
    """The sparse per-depth deltas equal counting every depth's stream whole."""

    def _check(self, kind, ref_symbols, start, edits, split):
        build, symbol_ids = _KINDS[kind]
        kernel = build(ref_symbols)

        def ids(symbols):
            return symbol_ids(kernel, symbols)

        streams, removed, added = _delta_walk(
            start, edits, context=len(kernel.ref_counts) - 1
        )
        removed = [ids(window) for window in removed]
        added = [ids(window) for window in added]
        running = [np.zeros(len(ref_counts), dtype=np.int64)
                   for ref_counts in kernel.ref_counts]
        expected = [kernel.stats(np.array(ids(stream), dtype=np.intp))
                    for stream in streams]
        lengths = [len(stream) for stream in streams]
        # two consecutive calls on one ``running``
        split = min(split, len(streams))
        for lo, hi in ((0, split), (split, len(streams))):
            counts, totals = kernel.delta_stats(
                running, removed[lo:hi], added[lo:hi], lengths[lo:hi]
            )
            counts = [order_counts.tolist() for order_counts in counts]
            totals = [order_totals.tolist() for order_totals in totals]
            for j, (want_counts, want_totals) in enumerate(expected[lo:hi]):
                assert [order_counts[j] for order_counts in counts] == want_counts
                assert [order_totals[j] for order_totals in totals] == want_totals
            last = streams[hi - 1] if hi else []
            assert [r.tolist() for r in running] == [
                c.tolist() for c in _gram_counts(kernel, ids, ref_symbols, last)
            ]

    @settings(max_examples=150, deadline=None)
    @given(
        # short, repetitive references: counts cross ``ref`` both ways,
        # and under max_order symbols an order has no reference gram at all
        ref_symbols=st.lists(st.sampled_from(_DELTA_ALPHABET[:4]), max_size=12),
        start=st.lists(st.sampled_from(_DELTA_ALPHABET), max_size=30),
        edits=st.lists(_edit, max_size=30),
        split=st.integers(0, 40),
    )
    def test_matches_stats_per_depth(self, kind, ref_symbols, start, edits, split):
        self._check(kind, ref_symbols, start, edits, split)

    @settings(max_examples=10, deadline=None)
    @given(
        ref_symbols=st.lists(st.sampled_from(_DELTA_ALPHABET[:4]), min_size=4,
                             max_size=12),
        rnd=st.randoms(use_true_random=False),
    )
    def test_matches_stats_over_long_ranges(self, kind, ref_symbols, rnd):
        edits = [
            (rnd.randrange(40), rnd.randrange(40),
             rnd.choices(_DELTA_ALPHABET, k=rnd.randrange(7)))
            for _ in range(rnd.randrange(201, 300))
        ]
        self._check(kind, ref_symbols, ["a", "b"] * 10, edits, rnd.randrange(300))

    def test_empty_windows_and_empty_orders(self, kind):
        # an empty stream edited into an empty stream: both windows empty
        self._check(kind, ["a", "b"], [], [(0, 0, []), (0, 5, []), (0, 0, ["a"])], 1)
        self._check(kind, [], ["a", "b"], [(0, 1, ["z"])], 2)

    def test_adjacent_windows_do_not_join(self, kind):
        # depth 0 adds "a" and depth 1 adds "b": the two added windows sit
        # side by side in the joined array, and without a sentinel between
        # them the reference bigram "a b" would count for depth 0
        self._check(kind, ["a", "b"], ["a"], [(0, 1, ["b"])], 2)

    def test_several_events_of_one_gram_in_one_depth(self, kind):
        # "a a a a" around a ref count of 2: one depth removes and adds
        # "a" unigrams and bigrams many times over
        self._check(kind, ["a", "a", "b", "a"], ["a"] * 8,
                    [(2, 6, ["a", "b", "a", "a"]), (0, 8, ["a"] * 3)], 1)


class TestBleuFromStats:
    """The float-only path equals ``exp``-smoothed ``_compute_score`` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.integers(0, 60), st.integers(0, 60)),
                    min_size=4, max_size=4,
                ),
                st.integers(0, 80),
            ),
            min_size=1, max_size=6,
        ),
        zero_tail=st.integers(0, 4),
        ref_len=st.integers(0, 80),
    )
    def test_equals_compute_score(self, rows, zero_tail, ref_len):
        counts, totals, sys_lens = [], [], []
        for pairs, sys_len in rows:
            # counts <= totals; the last ``zero_tail`` orders have no grams
            pairs = [(min(c, t), t) if n < 4 - zero_tail else (0, 0)
                     for n, (c, t) in enumerate(pairs)]
            counts.append([c for c, _ in pairs])
            totals.append([t for _, t in pairs])
            sys_lens.append(sys_len)
        got = bleu_from_stats(np.array(counts).T, np.array(totals).T, sys_lens, ref_len)
        assert got == [
            _compute_score(c, t, sys_len, ref_len, "exp", None, 4).score
            for c, t, sys_len in zip(counts, totals, sys_lens)
        ]


class TestScorerBatch:
    COMPLETIONS = [
        "engine.put(var, data)",
        "engine.get(var)",
        "",
        "   \n",
        "completely unrelated text",
        "engine.put(var, data)",  # duplicate: must score identically
    ]
    TARGET = "engine.put(var, data)"

    def test_batch_identical_to_single_calls(self):
        scorer = CodeSimilarityScorer()
        batch = scorer.score_batch(self.COMPLETIONS, self.TARGET)
        assert batch == [scorer(c, self.TARGET) for c in self.COMPLETIONS]

    def test_empty_batch(self):
        assert CodeSimilarityScorer().score_batch([], self.TARGET) == []

    @settings(max_examples=30, deadline=None)
    @given(completions=st.lists(unicode_text, max_size=6), target=unicode_text)
    def test_batch_matches_singles_on_random_inputs(self, completions, target):
        scorer = CodeSimilarityScorer()
        batch = scorer.score_batch(completions, target)
        assert batch == [scorer(c, target) for c in completions]


class TestKernelPickling:
    def test_compiled_reference_with_kernels_round_trips(self):
        ref = compile_reference("engine.put(var, data) # pickled")
        bleu_kernel("engine.put(var, data)", ref)
        chrf_kernel("engine.put(var, data)", ref)
        clone = pickle.loads(pickle.dumps(ref))
        # the interned vocabularies travelled with the object...
        assert set(clone._kernels) == set(ref._kernels)
        # ...and score identically on both sides of the round trip
        for hyp in ("engine.put(var, data)", "engine.get(var)", ""):
            assert bleu_kernel(hyp, clone) == bleu_kernel(hyp, ref)
            assert chrf_kernel(hyp, clone) == chrf_kernel(hyp, ref)

    @pytest.mark.parametrize("kernel", [
        _TokenKernel("engine . put ( var , data ) engine . get ( var )".split()),
        _CharKernel("engine.put(var, data) engine.get(var)"),
        _TokenKernel([]),
        _CharKernel(""),
    ], ids=["token", "char", "empty-token", "empty-char"])
    def test_tables_round_trip(self, kernel):
        clone = pickle.loads(pickle.dumps(kernel))
        assert type(clone) is type(kernel)
        assert clone.width == kernel.width
        for got, want in zip(clone.tables + clone.ref_counts,
                             kernel.tables + kernel.ref_counts, strict=True):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        ids = np.arange(kernel.width, dtype=np.intp)[::-1].repeat(2)
        assert [idx.tolist() for idx in _gram_index(ids, clone.tables, clone.width)] == [
            idx.tolist() for idx in _gram_index(ids, kernel.tables, kernel.width)
        ]

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_walk_resumes_on_the_clone(self, kind):
        # ``__slots__`` pickle natively: a walk split across the round
        # trip gives the deltas of one uninterrupted walk
        build, symbol_ids = _KINDS[kind]
        kernel = build(["a", "b", "c", "a", "b", "a"])
        clone = pickle.loads(pickle.dumps(kernel))
        streams, removed, added = _delta_walk(
            ["a", "b", "a", "b"],
            [(1, 2, ["c"]), (0, 0, ["a", "z"]), (3, 5, []), (2, 2, ["b", "a"])],
            context=len(kernel.ref_counts) - 1,
        )
        removed = [symbol_ids(kernel, window) for window in removed]
        added = [symbol_ids(kernel, window) for window in added]
        lengths = [len(stream) for stream in streams]

        def walk(kernels_by_part):
            running = [np.zeros(len(ref_counts), dtype=np.int64)
                       for ref_counts in kernel.ref_counts]
            out = []
            for part, (lo, hi) in zip(kernels_by_part, [(0, 2), (2, len(streams))]):
                counts, totals = part.delta_stats(
                    running, removed[lo:hi], added[lo:hi], lengths[lo:hi]
                )
                out.append(([c.tolist() for c in counts], [t.tolist() for t in totals]))
            return out, [r.tolist() for r in running]

        assert walk([kernel, clone]) == walk([kernel, kernel])


class TestCharReferenceTotals:
    """chrF's reference n-gram totals come from the char kernel's counts."""

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_every_char_ngram_of_the_reference_is_counted(self, text):
        chars = "".join(text.split())
        kernel = _CharKernel(text)
        assert [int(grams.sum()) for grams in kernel.ref_counts] == [
            max(len(chars) - order + 1, 0) for order in range(1, DEFAULT_CHAR_ORDER + 1)
        ]


class TestCompileCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        compile_reference.cache_clear()
        yield
        compile_reference.cache_clear()

    def test_content_hash_shares_one_object(self):
        assert compile_reference("same text") is compile_reference("same text")
        assert compile_reference.cache_len() == 1

    def test_capacity_evicts_least_recent(self, monkeypatch):
        monkeypatch.setattr(kernels, "_COMPILE_CACHE_CAPACITY", 2)
        first = compile_reference("ref one")
        compile_reference("ref two")
        compile_reference("ref three")  # evicts "ref one"
        assert compile_reference.cache_len() == 2
        assert compile_reference("ref one") is not first

    def test_ref_len_matches_tokenizer(self):
        ref = CompiledReference("engine.put(var, data)")
        assert ref.ref_len == len(tokenize_13a("engine.put(var, data)"))

    def test_tokens_built_once_and_match_tokenizer(self):
        ref = CompiledReference("engine.put(var, data)\nengine.end()")
        tokens = ref.tokens
        assert list(tokens) == tokenize_13a(ref.text)
        assert ref.tokens is tokens

    def test_lookup_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(kernels, "_COMPILE_CACHE_CAPACITY", 2)
        first = compile_reference("ref one")
        second = compile_reference("ref two")
        assert compile_reference("ref one") is first  # now most recent
        compile_reference("ref three")  # evicts "ref two"
        assert compile_reference("ref one") is first
        assert compile_reference("ref two") is not second

    def test_lone_surrogate_text_is_cached(self):
        text = "\ud800 lone surrogate"
        assert compile_reference(text) is compile_reference(text)
        assert compile_reference(text).text == text

    def test_cache_clear_drops_every_entry(self):
        first = compile_reference("ref one")
        compile_reference("ref two")
        compile_reference.cache_clear()
        assert compile_reference.cache_len() == 0
        assert compile_reference("ref one") is not first


class TestReExports:
    """Modules that score through the kernels share their objects."""

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.llm.calibration", "bleu_compiled"),
            ("repro.llm.calibration", "compile_reference"),
            ("repro.llm.simulated", "compile_reference"),
            ("repro.core.scorers", "compile_reference"),
        ],
    )
    def test_same_object_as_kernels(self, module, name):
        assert getattr(importlib.import_module(module), name) is getattr(kernels, name)


class TestEmptyStringScoring:
    """Zero-length hypothesis/reference sweep (metrics/ edge-case audit)."""

    def test_bleu_empty_hypothesis_is_zero(self):
        assert bleu("", "some reference text") == 0.0

    def test_bleu_empty_reference_is_zero(self):
        # smoothing must not fabricate similarity to an empty reference
        assert bleu("some hypothesis text", "") == 0.0

    def test_bleu_both_empty_is_zero(self):
        assert bleu("", "") == 0.0

    def test_chrf_empty_hypothesis_is_zero(self):
        assert chrf("", "some reference text") == 0.0

    def test_chrf_empty_reference_is_zero(self):
        assert chrf("some hypothesis text", "") == 0.0

    def test_chrf_both_empty_is_zero(self):
        assert chrf("", "") == 0.0

    @pytest.mark.parametrize("hyp,ref", [("", "ref text"), ("hyp text", ""), ("", "")])
    def test_kernels_agree_on_empties(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == bleu(hyp, ref)
        assert chrf_kernel(hyp, ref) == chrf(hyp, ref)

    def test_whitespace_only_pair(self):
        assert bleu("   ", " \n ") == 0.0
        assert chrf("   ", " \n ") == 0.0

    def test_bleu_format_guards_zero_ref_len(self):
        score = corpus_bleu(["hello"], [""])
        assert score.ref_len == 0
        assert "ratio" in score.format()  # no ZeroDivisionError
