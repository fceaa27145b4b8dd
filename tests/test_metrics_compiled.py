"""Compiled metrics engine: equivalence with the reference scorers.

The compiled scorers must be drop-in numerically identical to
``bleu``/``chrf`` (property-tested to 1e-9 across random hypotheses and
every smoothing method), the reference statistics must be computed once
and shared, and zero-length hypothesis/reference edge cases must score
without fabricating positive similarity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import bleu, chrf
from repro.metrics.bleu import corpus_bleu
from repro.metrics.compiled import (
    CompiledReference,
    bleu_compiled,
    chrf_compiled,
    compile_reference,
)
from repro.metrics.tokenizers import (
    _tokenize_13a_reference,
    tokenize_13a,
    tokenize_13a_cached,
    tokenize_lines,
)

text = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")),
    min_size=0,
    max_size=200,
)
multiline_text = st.lists(text, min_size=1, max_size=8).map("\n".join)
word_text = st.lists(
    st.text(alphabet="abcdefgh.,-0123456789", min_size=1, max_size=6),
    min_size=1,
    max_size=40,
).map(" ".join)

SMOOTHING = ["exp", "floor", "add-k", "none"]


class TestBleuCompiledEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=text, ref=word_text, smooth=st.sampled_from(SMOOTHING))
    def test_matches_reference_bleu(self, hyp, ref, smooth):
        expected = bleu(hyp, ref, smooth_method=smooth)
        got = bleu_compiled(hyp, ref, smooth_method=smooth)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text)
    def test_matches_on_multiline_artifacts(self, hyp, ref):
        assert bleu_compiled(hyp, ref) == pytest.approx(bleu(hyp, ref), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        hyp=word_text,
        ref=word_text,
        smooth=st.sampled_from(["floor", "add-k"]),
        value=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    )
    def test_matches_with_explicit_smooth_values(self, hyp, ref, smooth, value):
        expected = bleu(hyp, ref, smooth_method=smooth, smooth_value=value)
        got = bleu_compiled(hyp, ref, smooth_method=smooth, smooth_value=value)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_unknown_smoothing_rejected(self):
        from repro.errors import MetricError

        with pytest.raises(MetricError, match="smoothing"):
            bleu_compiled("a", "a", smooth_method="nope")

    def test_accepts_precompiled_object(self):
        ref = compile_reference("engine.put(var, data)")
        assert bleu_compiled("engine.put(var, data)", ref) == pytest.approx(100.0)


class TestChrfCompiledEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(hyp=text, ref=word_text)
    def test_matches_reference_chrf(self, hyp, ref):
        assert chrf_compiled(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=multiline_text, ref=multiline_text, order=st.integers(1, 8))
    def test_matches_across_char_orders(self, hyp, ref, order):
        expected = chrf(hyp, ref, char_order=order)
        got = chrf_compiled(hyp, ref, char_order=order)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(hyp=word_text, ref=word_text)
    def test_matches_with_whitespace_kept(self, hyp, ref):
        expected = chrf(hyp, ref, remove_whitespace=False)
        got = chrf_compiled(hyp, ref, remove_whitespace=False)
        assert got == pytest.approx(expected, abs=1e-9)


class TestCompiledReference:
    def test_lru_shares_one_object_per_text(self):
        assert compile_reference("shared text") is compile_reference("shared text")

    def test_statistics_memoized(self):
        ref = CompiledReference("a b c a b")
        assert ref.token_ngrams(2) is ref.token_ngrams(2)
        assert ref.char_grams(3) is ref.char_grams(3)
        assert ref.char_total(3) == sum(ref.char_grams(3).values())

    def test_ref_len_matches_tokenizer(self):
        ref = CompiledReference("engine.put(var, data)")
        assert ref.ref_len == len(tokenize_13a("engine.put(var, data)"))

    def test_counters_not_polluted_by_lookups(self):
        # scoring must never grow the shared reference counters
        ref = compile_reference("alpha beta gamma")
        before = dict(ref.token_ngrams(1))
        bleu_compiled("delta epsilon zeta", ref)
        assert dict(ref.token_ngrams(1)) == before


class TestTokenizerCache:
    @settings(max_examples=120, deadline=None)
    @given(s=st.text(alphabet=st.characters(codec="ascii"), max_size=240))
    def test_cached_equals_reference_implementation(self, s):
        assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(text, min_size=2, max_size=10))
    def test_multiline_split_equals_reference(self, lines):
        s = "\n".join(lines)
        assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)

    @settings(max_examples=80, deadline=None)
    @given(lines=st.lists(text, max_size=8), cut=st.integers(0, 8))
    def test_line_tokens_split_anywhere(self, lines, cut):
        # a run of lines tokenizes the same alone as inside the whole text,
        # and whenever the per-line rule applies it matches mteval exactly
        whole = tokenize_lines(lines)
        cut = min(cut, len(lines))
        head = tokenize_lines(lines[:cut], last=cut == len(lines))
        tail = tokenize_lines(lines[cut:], first=cut == 0)
        if whole is None:
            assert head is None or tail is None
            return
        assert head + tail == whole
        expected = _tokenize_13a_reference("\n".join(lines))
        assert [t for line in whole for t in line] == expected

    def test_lines_that_do_not_split(self):
        assert tokenize_lines(["work-", "flow"]) is None
        assert tokenize_lines(["a\rb"]) is None
        assert tokenize_lines(["a\nb"]) is None
        assert tokenize_lines(["work-"], last=False) is None
        assert tokenize_lines(["work", "flow-"]) == [("work",), ("flow-",)]

    def test_hyphenated_line_join(self):
        assert tokenize_13a("work-\nflow") == ["workflow"]

    def test_returns_fresh_list(self):
        a = tokenize_13a("alpha beta")
        a.append("junk")
        assert tokenize_13a("alpha beta") == ["alpha", "beta"]

    def test_digit_context_at_line_boundaries(self):
        # the per-line fast path must preserve the period/digit rules
        for s in (".5 rest", "x.\n.5", "3\n.5", "5.\n3", "a.\n.b", ".5\ntail"):
            assert list(tokenize_13a_cached(s)) == _tokenize_13a_reference(s)


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
    def test_compiled_agrees_on_empties(self, hyp, ref):
        assert bleu_compiled(hyp, ref) == pytest.approx(bleu(hyp, ref), abs=1e-9)
        assert chrf_compiled(hyp, ref) == pytest.approx(chrf(hyp, ref), abs=1e-9)

    def test_whitespace_only_pair(self):
        assert bleu("   ", " \n ") == 0.0
        assert chrf("   ", " \n ") == 0.0

    def test_bleu_format_guards_zero_ref_len(self):
        score = corpus_bleu(["hello"], [""])
        assert score.ref_len == 0
        assert "ratio" in score.format()  # no ZeroDivisionError
