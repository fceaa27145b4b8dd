"""Vectorized metric kernels: equivalence, fallbacks, pickling, cache.

The kernels must be drop-in numerically identical to the reference
``bleu``/``chrf`` scorers (property-tested to 1e-9 across unicode,
empty and whitespace-only inputs and every smoothing method),
``score_batch`` must be element-wise identical to per-completion
scoring, interned vocabularies must survive pickling, and the
content-hash compile cache must respect ``REPRO_COMPILE_CACHE``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scorers import CodeSimilarityScorer, Score
from repro.metrics import bleu, chrf
from repro.metrics.bleu import _compute_score
from repro.metrics.compiled import (
    bleu_compiled,
    chrf_compiled,
    compile_reference,
)
from repro.metrics.kernels import (
    _pack_codes,
    _TokenKernel,
    bleu_from_stats,
    bleu_kernel,
    bleu_kernel_batch,
    chrf_kernel,
    chrf_kernel_batch,
    kernels_enabled,
    score_batch,
)

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

SMOOTHING = ["exp", "floor", "add-k", "none"]
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
    @given(hyp=ascii_text, ref=word_text, smooth=st.sampled_from(SMOOTHING))
    def test_matches_reference_bleu(self, hyp, ref, smooth):
        expected = bleu(hyp, ref, smooth_method=smooth)
        got = bleu_kernel(hyp, ref, smooth_method=smooth)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_matches_on_unicode(self, hyp, ref):
        assert bleu_kernel(hyp, ref) == pytest.approx(bleu(hyp, ref), abs=1e-9)

    @pytest.mark.parametrize("hyp", EDGE_CASES)
    @pytest.mark.parametrize("ref", EDGE_CASES)
    def test_edge_case_pairs_bit_equal_to_compiled(self, hyp, ref):
        # the kernels share _compute_score with the compiled path, so
        # equality here is exact, not approximate
        assert bleu_kernel(hyp, ref) == bleu_compiled(hyp, ref)

    @settings(max_examples=30, deadline=None)
    @given(
        hyp=word_text,
        ref=word_text,
        smooth=st.sampled_from(["floor", "add-k"]),
        value=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    )
    def test_matches_with_explicit_smooth_values(self, hyp, ref, smooth, value):
        expected = bleu(hyp, ref, smooth_method=smooth, smooth_value=value)
        got = bleu_kernel(hyp, ref, smooth_method=smooth, smooth_value=value)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_unknown_smoothing_rejected(self):
        from repro.errors import MetricError

        with pytest.raises(MetricError, match="smoothing"):
            bleu_kernel("a", "a", smooth_method="nope")

    def test_accepts_precompiled_object(self):
        ref = compile_reference("engine.put(var, data)")
        assert bleu_kernel("engine.put(var, data)", ref) == pytest.approx(100.0)


class TestChrfKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=ascii_text, ref=word_text)
    def test_matches_reference_chrf(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text)
    def test_matches_on_unicode(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=unicode_text, ref=unicode_text, order=st.integers(1, 8))
    def test_matches_across_char_orders(self, hyp, ref, order):
        expected = chrf(hyp, ref, char_order=order)
        got = chrf_kernel(hyp, ref, char_order=order)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=word_text, ref=word_text)
    def test_matches_with_whitespace_kept(self, hyp, ref):
        expected = chrf(hyp, ref, remove_whitespace=False)
        got = chrf_kernel(hyp, ref, remove_whitespace=False)
        assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("hyp", EDGE_CASES)
    @pytest.mark.parametrize("ref", EDGE_CASES)
    def test_edge_case_pairs_bit_equal_to_compiled(self, hyp, ref):
        assert chrf_kernel(hyp, ref) == chrf_compiled(hyp, ref)


class TestKernelFallbacks:
    def test_env_escape_hatch_disables_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRIC_KERNELS", "0")
        assert not kernels_enabled()
        # disabled kernels route through the compiled path: same scores
        assert bleu_kernel("a b c", "a b d") == bleu_compiled("a b c", "a b d")
        assert chrf_kernel("a b c", "a b d") == chrf_compiled("a b c", "a b d")

    def test_char_code_overflow_falls_back_to_compiled(self):
        # >1290 unique codepoints makes base**6 overflow the packed-code
        # limit; the reference memoizes "unsupported" and the score is
        # still exactly the compiled one
        ref = compile_reference("".join(chr(cp) for cp in range(0x4E00, 0x5380)))
        hyp = "".join(chr(cp) for cp in range(0x4E00, 0x4E40))
        assert chrf_kernel(hyp, ref) == chrf_compiled(hyp, ref)
        assert ref._kernels[("char", 6, True)] is False
        # BLEU's token side is unaffected (few unique tokens)
        assert bleu_kernel(hyp, ref) == bleu_compiled(hyp, ref)

    def test_kernel_built_once_per_reference(self):
        ref = compile_reference("alpha beta gamma alpha")
        bleu_kernel("alpha beta", ref)
        kernel = ref._kernels[("token", 4)]
        bleu_kernel("gamma delta", ref)
        assert ref._kernels[("token", 4)] is kernel

    def test_scoring_does_not_pollute_reference_state(self):
        ref = compile_reference("alpha beta gamma")
        bleu_kernel("delta epsilon", ref)
        before = {key: kern for key, kern in ref._kernels.items()}
        bleu_kernel("zeta eta theta", ref)
        chrf_kernel("iota kappa", ref)
        for key, kern in before.items():
            assert ref._kernels[key] is kern


class TestBatchKernels:
    @settings(max_examples=40, deadline=None)
    @given(
        hyps=st.lists(unicode_text, max_size=8),
        ref=unicode_text,
        smooth=st.sampled_from(SMOOTHING),
    )
    def test_bleu_batch_elementwise_equals_single(self, hyps, ref, smooth):
        batch = bleu_kernel_batch(hyps, ref, smooth_method=smooth)
        assert batch == [
            bleu_kernel(hyp, ref, smooth_method=smooth) for hyp in hyps
        ]

    @settings(max_examples=40, deadline=None)
    @given(hyps=st.lists(unicode_text, max_size=8), ref=unicode_text)
    def test_chrf_batch_elementwise_equals_single(self, hyps, ref):
        assert chrf_kernel_batch(hyps, ref) == [
            chrf_kernel(hyp, ref) for hyp in hyps
        ]

    def test_batch_on_edge_case_group(self):
        for ref in EDGE_CASES:
            assert bleu_kernel_batch(EDGE_CASES, ref) == [
                bleu_kernel(hyp, ref) for hyp in EDGE_CASES
            ]
            assert chrf_kernel_batch(EDGE_CASES, ref) == [
                chrf_kernel(hyp, ref) for hyp in EDGE_CASES
            ]

    def test_empty_group(self):
        assert bleu_kernel_batch([], "reference") == []
        assert chrf_kernel_batch([], "reference") == []

    def test_batch_falls_back_when_kernels_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRIC_KERNELS", "0")
        hyps = ["a b c", "a b d", ""]
        assert bleu_kernel_batch(hyps, "a b c") == [
            bleu_compiled(hyp, "a b c") for hyp in hyps
        ]
        assert chrf_kernel_batch(hyps, "a b c") == [
            chrf_compiled(hyp, "a b c") for hyp in hyps
        ]

    def test_boundary_ngrams_never_leak_across_hypotheses(self):
        # "ab" + "cd" as a group must not manufacture the cross-boundary
        # bigram "bc" that a naive concatenation would contain
        ref = "abcd"
        assert chrf_kernel_batch(["ab", "cd"], ref) == [
            chrf_kernel("ab", ref),
            chrf_kernel("cd", ref),
        ]
        assert bleu_kernel_batch(["w x", "y z"], "w x y z") == [
            bleu_kernel("w x", "w x y z"),
            bleu_kernel("y z", "w x y z"),
        ]


_DELTA_ALPHABET = ("a", "b", "c", "d", "zz")  # "zz": never in a reference


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


def _gram_counts(kernel, tokens):
    """Fresh per-order hypothesis counts of every reference gram."""
    ids = np.array(kernel.token_ids(tokens), dtype=np.int64)
    out = []
    for codes, (uniq, _) in zip(_pack_codes(ids, kernel.base, len(kernel.orders)),
                                kernel.orders):
        out.append(np.array([int((codes == gram).sum()) for gram in uniq],
                            dtype=np.int64))
    return out


_edit = st.tuples(
    st.integers(0, 40),
    st.integers(0, 40),
    st.lists(st.sampled_from(_DELTA_ALPHABET), max_size=6),
)


class TestDeltaStats:
    """The sparse per-depth deltas equal counting every depth's stream whole."""

    def _check(self, ref_tokens, start, edits, split):
        kernel = _TokenKernel(ref_tokens, 4)
        streams, removed, added = _delta_walk(
            start, edits, context=len(kernel.orders) - 1
        )
        removed = [kernel.token_ids(window) for window in removed]
        added = [kernel.token_ids(window) for window in added]
        running = [np.zeros(len(uniq), dtype=np.int64) for uniq, _ in kernel.orders]
        expected_counts, expected_totals = kernel.batch_stats(streams)
        lengths = [len(stream) for stream in streams]
        # two consecutive calls on one ``running``
        split = min(split, len(streams))
        for lo, hi in ((0, split), (split, len(streams))):
            counts, totals = kernel.delta_stats(
                running, removed[lo:hi], added[lo:hi], lengths[lo:hi]
            )
            for order in range(len(kernel.orders)):
                assert counts[order].tolist() == expected_counts[order][lo:hi].tolist()
                assert totals[order].tolist() == expected_totals[order][lo:hi].tolist()
            last = streams[hi - 1] if hi else []
            assert [r.tolist() for r in running] == [
                c.tolist() for c in _gram_counts(kernel, last)
            ]

    @settings(max_examples=150, deadline=None)
    @given(
        # short, repetitive references: counts cross ``ref`` both ways,
        # and under four tokens an order has no reference gram at all
        ref_tokens=st.lists(st.sampled_from(_DELTA_ALPHABET[:4]), max_size=12),
        start=st.lists(st.sampled_from(_DELTA_ALPHABET), max_size=30),
        edits=st.lists(_edit, max_size=30),
        split=st.integers(0, 40),
    )
    def test_matches_batch_stats_per_depth(self, ref_tokens, start, edits, split):
        self._check(ref_tokens, start, edits, split)

    @settings(max_examples=10, deadline=None)
    @given(
        ref_tokens=st.lists(st.sampled_from(_DELTA_ALPHABET[:4]), min_size=4,
                            max_size=12),
        rnd=st.randoms(use_true_random=False),
    )
    def test_matches_batch_stats_over_long_ranges(self, ref_tokens, rnd):
        edits = [
            (rnd.randrange(40), rnd.randrange(40),
             rnd.choices(_DELTA_ALPHABET, k=rnd.randrange(7)))
            for _ in range(rnd.randrange(201, 300))
        ]
        self._check(ref_tokens, ["a", "b"] * 10, edits, rnd.randrange(300))

    def test_empty_windows_and_empty_orders(self):
        # an empty stream edited into an empty stream: both windows empty
        self._check(["a", "b"], [], [(0, 0, []), (0, 5, []), (0, 0, ["a"])], 1)
        self._check([], ["a", "b"], [(0, 1, ["zz"])], 2)

    def test_several_events_of_one_gram_in_one_depth(self):
        # "a a a a" around a ref count of 2: one depth removes and adds
        # "a" unigrams and bigrams many times over
        self._check(["a", "a", "b", "a"], ["a"] * 8,
                    [(2, 6, ["a", "b", "a", "a"]), (0, 8, ["a"] * 3)], 1)


class TestBleuFromStats:
    """The float-only ``exp`` path equals ``_compute_score`` bit for bit."""

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
        smooth=st.sampled_from(SMOOTHING),
    )
    def test_equals_compute_score(self, rows, zero_tail, ref_len, smooth):
        counts, totals, sys_lens = [], [], []
        for pairs, sys_len in rows:
            # counts <= totals; the last ``zero_tail`` orders have no grams
            pairs = [(min(c, t), t) if n < 4 - zero_tail else (0, 0)
                     for n, (c, t) in enumerate(pairs)]
            counts.append([c for c, _ in pairs])
            totals.append([t for _, t in pairs])
            sys_lens.append(sys_len)
        got = bleu_from_stats(
            np.array(counts).T, np.array(totals).T, sys_lens, ref_len,
            smooth_method=smooth,
        )
        assert got == [
            _compute_score(c, t, sys_len, ref_len, smooth, None, 4).score
            for c, t, sys_len in zip(counts, totals, sys_lens)
        ]

    def test_other_smoothing_goes_through_compute_score(self, monkeypatch):
        import repro.metrics.kernels as kernels

        seen = []

        def spy(*args):
            seen.append(args[4])
            return _compute_score(*args)

        monkeypatch.setattr(kernels, "_compute_score", spy)
        stats = (np.array([[1], [0], [0], [0]]), np.array([[3], [2], [1], [0]]))
        for smooth in ("floor", "add-k", "none"):
            bleu_from_stats(*stats, [3], 5, smooth_method=smooth)
        assert seen == ["floor", "add-k", "none"]
        bleu_from_stats(*stats, [3], 5)
        assert seen == ["floor", "add-k", "none"]


class TestScoreBatch:
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
        batch = score_batch(self.COMPLETIONS, self.TARGET, scorer)
        single = [scorer(c, self.TARGET) for c in self.COMPLETIONS]
        assert batch == single

    def test_batch_on_plain_callable_scorer(self):
        def scorer(completion: str, target: str) -> Score:
            return Score(values={"len": float(len(completion))}, answer=completion)

        batch = score_batch(self.COMPLETIONS, self.TARGET, scorer)
        assert [s["len"] for s in batch] == [float(len(c)) for c in self.COMPLETIONS]

    def test_empty_batch(self):
        assert score_batch([], self.TARGET, CodeSimilarityScorer()) == []

    @settings(max_examples=30, deadline=None)
    @given(completions=st.lists(unicode_text, max_size=6), target=unicode_text)
    def test_batch_matches_singles_on_random_inputs(self, completions, target):
        scorer = CodeSimilarityScorer()
        batch = score_batch(completions, target, scorer)
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


class TestCompileCacheEnv:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        compile_reference.cache_clear()
        yield
        compile_reference.cache_clear()

    def test_content_hash_shares_one_object(self):
        assert compile_reference("same text") is compile_reference("same text")
        assert compile_reference.cache_len() == 1

    def test_capacity_evicts_least_recent(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "2")
        first = compile_reference("ref one")
        compile_reference("ref two")
        compile_reference("ref three")  # evicts "ref one"
        assert compile_reference.cache_len() == 2
        assert compile_reference("ref one") is not first

    def test_zero_capacity_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        a = compile_reference("uncached")
        b = compile_reference("uncached")
        assert a is not b
        assert compile_reference.cache_len() == 0

    def test_garbage_env_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "not-a-number")
        assert compile_reference("still works") is compile_reference("still works")
