"""mteval-13a tokenization and n-gram utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.tokenizers import (
    _tokenize_13a_reference,
    char_ngrams,
    clipped_matches,
    ngrams,
    tokenize_13a,
    tokenize_13a_cached,
    tokenize_lines,
)

text = st.text(
    alphabet=st.characters(codec="ascii", exclude_categories=("Cc", "Cs")),
    min_size=0,
    max_size=200,
)


class TestTokenize13a:
    def test_punctuation_separated(self):
        assert tokenize_13a("engine.put(var)") == ["engine", ".", "put", "(", "var", ")"]

    def test_decimal_numbers_kept_together(self):
        assert "3.14" in tokenize_13a("pi is 3.14 exactly")

    def test_comma_in_numbers_kept(self):
        assert "1,000" in tokenize_13a("n = 1,000")

    def test_trailing_period_split(self):
        assert tokenize_13a("done.")[-1] == "."

    def test_newlines_joined(self):
        assert tokenize_13a("a\nb") == ["a", "b"]

    def test_hyphenation_repaired(self):
        assert tokenize_13a("work-\nflow") == ["workflow"]

    def test_entities_decoded(self):
        assert tokenize_13a("a &amp; b") == ["a", "&", "b"]

    def test_digit_dash_split(self):
        assert tokenize_13a("3-node") == ["3", "-", "node"]


class TestNgrams:
    def test_bigrams(self):
        grams = ngrams(["a", "b", "a", "b"], 2)
        assert grams[("a", "b")] == 2
        assert grams[("b", "a")] == 1

    def test_order_longer_than_sequence(self):
        assert len(ngrams(["a"], 2)) == 0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)


class TestCharNgrams:
    def test_whitespace_removed(self):
        assert char_ngrams("a b", 2) == char_ngrams("ab", 2)

    def test_whitespace_kept(self):
        assert char_ngrams("a b", 2, remove_whitespace=False) != char_ngrams("ab", 2)


class TestClippedMatches:
    def test_clipping(self):
        hyp = ngrams(["x", "x", "x"], 1)
        ref = ngrams(["x"], 1)
        assert clipped_matches(hyp, ref) == 1

    def test_disjoint(self):
        assert clipped_matches(ngrams(["a"], 1), ngrams(["b"], 1)) == 0


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
