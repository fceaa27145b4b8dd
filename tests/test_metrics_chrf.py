"""ChrF: identity, bounds, whitespace handling, beta semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetricError
from repro.metrics import chrf, corpus_chrf

REF = "tasks:\n- func: producer\n  nprocs: 3"


class TestSentenceChrf:
    def test_identity_is_100(self):
        assert chrf(REF, REF) == pytest.approx(100.0)

    def test_disjoint_is_0(self):
        assert chrf("abcdef", "uvwxyz") == pytest.approx(0.0, abs=0.5)

    def test_range(self):
        assert 0.0 <= chrf("tasks:\n- func: writer", REF) <= 100.0

    def test_whitespace_removed_by_default(self):
        spaced = REF.replace("\n", "\n    ")
        assert chrf(spaced, REF) == pytest.approx(100.0)

    def test_whitespace_preserved_when_disabled(self):
        spaced = REF.replace(" ", "  ")
        assert chrf(spaced, REF, remove_whitespace=False) < 100.0

    def test_empty_hypothesis(self):
        assert chrf("", REF) == pytest.approx(0.0)

    def test_more_corruption_scores_lower(self):
        mild = REF.replace("producer", "producr")
        heavy = "completely unrelated words here"
        assert chrf(heavy, REF) < chrf(mild, REF)


class TestBeta:
    def test_beta_weighs_recall(self):
        # hypothesis missing half the reference: recall low, precision high.
        # higher beta (recall-weighted) must score it lower.
        hyp = REF[: len(REF) // 2]
        assert chrf(hyp, REF, beta=3.0) < chrf(hyp, REF, beta=0.5)

    def test_best_reference_ranked_with_callers_beta(self):
        # F-0.5 prefers the long reference (precision 1, recall 0.3) over
        # "a" (precision 1/3, recall 1); F-2 would prefer "a"
        score = chrf("aab", ["a", "aabbbbbbbb"], char_order=1, beta=0.5)
        assert score == chrf("aab", "aabbbbbbbb", char_order=1, beta=0.5)
        assert score == pytest.approx(68.18, abs=0.005)

    def test_reference_order_does_not_matter(self):
        refs = ["a", "aabbbbbbbb"]
        forward = chrf("aab", refs, char_order=1, beta=0.5)
        assert chrf("aab", refs[::-1], char_order=1, beta=0.5) == forward

    def test_corpus_ranks_references_with_callers_beta(self):
        multi = corpus_chrf(["aab"], [["a", "aabbbbbbbb"]], char_order=1, beta=0.5)
        single = corpus_chrf(["aab"], [["aabbbbbbbb"]], char_order=1, beta=0.5)
        assert multi.score == single.score

    # with one order, the best-F-beta reference's F is the whole score
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    @settings(max_examples=60, deadline=None)
    @given(
        hyp=st.text(alphabet="ab ", max_size=12),
        refs=st.lists(st.text(alphabet="ab ", max_size=12), min_size=1, max_size=4),
    )
    def test_multi_reference_equals_best_single_reference(self, beta, hyp, refs):
        assert chrf(hyp, refs, char_order=1, beta=beta) == max(
            chrf(hyp, ref, char_order=1, beta=beta) for ref in refs
        )


class TestCharOrder:
    def test_lower_order_more_forgiving(self):
        hyp = REF.replace("producer", "producer2")
        assert chrf(hyp, REF, char_order=2) >= chrf(hyp, REF, char_order=6)


class TestCorpusChrf:
    def test_empty_corpus_raises(self):
        with pytest.raises(MetricError):
            corpus_chrf([], [])

    def test_mismatch_raises(self):
        with pytest.raises(MetricError):
            corpus_chrf(["a"], ["a", "b"])

    def test_multi_reference(self):
        score = corpus_chrf([REF], [["unrelated", REF]])
        assert score.score == pytest.approx(100.0)

    def test_per_order_f_populated(self):
        result = corpus_chrf([REF], [REF])
        assert len(result.per_order_f) == 6
        assert all(f == pytest.approx(1.0) for f in result.per_order_f)

    def test_format(self):
        assert "chrF2" in corpus_chrf([REF], [REF]).format()
