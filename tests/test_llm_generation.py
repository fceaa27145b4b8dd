"""Corruption engine, calibration, and the simulated models."""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.assets import annotated_producer, reference_config
from repro.errors import CalibrationError
from repro.llm import ChatMessage, GenerateConfig, get_model
from repro.llm.calibration import (
    QualityCurve,
    calibrate,
    local_recalibrate,
    quality_curve,
)
from repro.llm.corruption import (
    CorruptionOp,
    _morph_line,
    _replace_word,
    apply_ops,
    build_ops,
    shuffle_within_bands,
)
from repro.llm.intent import analyze_prompt
from repro.llm.knowledge import SystemKnowledge
from repro.llm.profiles import ALL_PROFILES
from repro.metrics import bleu
from repro.metrics.kernels import _Kernel, _token_kernel
from repro.utils.rng import rng_for
from repro.utils.text import strip_markdown_chatter

REF = reference_config("wilkins")


def wilkins_knowledge() -> SystemKnowledge:
    profile = ALL_PROFILES["o3"]()
    return profile.knowledge_for("configuration", "wilkins")


class TestCorruptionOps:
    def test_zero_ops_is_identity(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        assert apply_ops(REF, ops, 0) == REF

    def test_full_ops_near_worst_case(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        corrupted = apply_ops(REF, ops, len(ops))
        assert bleu(corrupted, REF) < 25.0

    def test_curve_starts_at_100(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = quality_curve(REF, ops)
        assert curve[0] == pytest.approx(100.0)

    def test_curve_overall_decreasing(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        curve = quality_curve(REF, ops)
        # not strictly monotone, but start > middle > end
        assert curve[0] > curve[len(curve) // 2] > curve[-1]

    def test_ops_deterministic_for_seed(self):
        a = build_ops(REF, wilkins_knowledge(), seed_labels=("x",))
        b = build_ops(REF, wilkins_knowledge(), seed_labels=("x",))
        assert [op.describe for op in a] == [op.describe for op in b]

    def test_bands_sorted(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        bands = [op.band for op in ops]
        assert bands == sorted(bands)

    def test_shuffle_preserves_bands_and_membership(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        shuffled = shuffle_within_bands(ops, rng_for("shuffle"))
        assert [op.band for op in shuffled] == [op.band for op in ops]
        assert sorted(op.describe for op in shuffled) == sorted(
            op.describe for op in ops
        )

    def test_shuffle_keeps_heavy_bands_fixed(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        shuffled = shuffle_within_bands(ops, rng_for("shuffle2"))
        heavy = [op.describe for op in ops if op.band >= 4]
        heavy_shuffled = [op.describe for op in shuffled if op.band >= 4]
        assert heavy == heavy_shuffled

    def test_empty_knowledge_still_has_mild_ops(self):
        ops = build_ops(REF, SystemKnowledge(), seed_labels=("t",))
        assert len(ops) >= 3
        assert all(op.band == 1 for op in ops)


def _o3_cell(experiment: str, system: str, *, fewshot=False, doccontext=False):
    """(reference, knowledge, chrf_bias, seed_labels) as the simulator
    builds them for one o3 cell."""
    profile = ALL_PROFILES["o3"]()
    knowledge = profile.knowledge_for(experiment, system)
    if fewshot:
        knowledge = SystemKnowledge(renames=knowledge.renames)
    elif doccontext:
        knowledge = SystemKnowledge(renames=knowledge.renames,
                                    inserts=knowledge.inserts, drops=knowledge.drops)
    reference = (reference_config(system) if experiment == "configuration"
                 else annotated_producer(system))
    key = (experiment, system, "original", fewshot, doccontext)
    return reference, knowledge, profile.bias_for(experiment, system), ("sim/o3", key)


class TestOperatorSequencesPinned:
    """Operator sequences and the texts they produce do not drift.

    The digests were taken before operators became shared values; any
    change to an operator's order, parameters or behaviour moves them
    (and, with them, every calibrated depth and the golden digest).
    """

    CASES = {
        # (operator count, sha256 of (kind, band, describe) per op,
        #  sha256 of the texts at depths 0, N // 2 and N)
        "wilkins-worst-case": (
            dict(experiment="configuration", system="wilkins"), 173,
            "e9e88b129beff3ed7ef96347874ec2efbbc30c2934979464a9400f33bf3cc2a5",
            "926ba0ca73c1c2b08523ac94bf81858a17700dd7cf1cca15a91f7196f443733f",
        ),
        "wilkins-few-shot": (
            dict(experiment="configuration", system="wilkins", fewshot=True), 8,
            "7751a1ad13521f5db7f3cafbb54eb58c96a348ed2547bb73a45c445869a3626f",
            "792f78ca732a3ca56df35f4e268fe16dd68490e57e6ff258a309d1a741096392",
        ),
        "wilkins-doc-context": (
            dict(experiment="configuration", system="wilkins", doccontext=True), 10,
            "52f6dda074d75fbc6e42d945a666744a1482dd4e75f65f40a1052b3dafb8f2a9",
            "1468ada4134c578c963bf269fa0933fb1e60c62e1491ea17161c29e700a6db56",
        ),
        # chrf_bias 17.8 > 5: insertions ahead of confusions and drops
        "parsl-annotation-chrf-gap": (
            dict(experiment="annotation", system="parsl"), 166,
            "bd10546b78b6593f873fd77fe38cfa11124a508e556e969ee52741311f9dcda2",
            "3b300c7894cc8402c4c8f62e13366c7ff95feaf1133c00957e2689949f4168a9",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sequence_and_texts_match_the_pins(self, case):
        cell, count, ops_digest, texts_digest = self.CASES[case]
        reference, knowledge, chrf_bias, labels = _o3_cell(**cell)
        ops = build_ops(reference, knowledge, chrf_bias=chrf_bias, seed_labels=labels)
        assert len(ops) == count
        described = repr([(op.kind, op.band, op.describe) for op in ops])
        assert hashlib.sha256(described.encode()).hexdigest() == ops_digest
        texts = "\x00".join(apply_ops(reference, ops, k) for k in (0, count // 2, count))
        assert hashlib.sha256(texts.encode()).hexdigest() == texts_digest


class _Planned(Exception):
    """Raised in place of running a plan, carrying it out."""

    def __init__(self, plan):
        self.plan = plan


def _plan_cells() -> dict[tuple, object]:
    """(model name, cell key) -> intent for every cell of the paper's sweeps."""
    import repro.runtime
    from repro.core import experiments
    from repro.core.experiments import fewshot, prompt_sensitivity
    from repro.llm.intent import analyze_prompt
    from repro.llm.simulated import SimulatedModel

    def capture(plan, config=None):
        raise _Planned(plan)

    sweeps = [
        experiments.run_configuration, experiments.run_annotation,
        experiments.run_translation, experiments.run_fewshot,
        *(lambda epochs, e=e: experiments.run_prompt_sensitivity(e, epochs=epochs)
          for e in ("configuration", "annotation", "translation")),
    ]
    cells: dict[tuple, object] = {}
    with pytest.MonkeyPatch.context() as mp:
        # grid sweeps import ``run`` from repro.runtime when called
        for module in (repro.runtime, fewshot, prompt_sensitivity):
            mp.setattr(module, "run", capture)
        for sweep in sweeps:
            with pytest.raises(_Planned) as planned:
                sweep(epochs=1)
            for unit in planned.value.plan.units:
                intent = analyze_prompt(unit.prompt)
                cells[(unit.model, SimulatedModel._cell_key(intent))] = intent
    return cells


class TestSharedOperators:
    """Each distinct operator is one object, shared by every sequence."""

    def test_same_cell_builds_the_same_objects(self):
        a = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        b = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        assert a is not b
        assert all(x is y for x, y in zip(a, b, strict=True))

    def test_cells_sharing_a_worst_case_share_its_operators(self):
        o3, claude = ALL_PROFILES["o3"](), ALL_PROFILES["claude-sonnet-4"]()
        know_a = o3.knowledge_for("configuration", "wilkins")
        know_b = claude.knowledge_for("configuration", "wilkins")
        assert know_a.worst_case == know_b.worst_case
        a = build_ops(REF, know_a, seed_labels=("sim/o3", "cell"))
        b = build_ops(REF, know_b, seed_labels=("sim/claude-sonnet-4", "cell"))

        def of(ops, *kinds):
            return [op for op in ops if op.kind in kinds]

        structural = ("collapse", "restructure")
        assert all(x is y for x, y in zip(of(a, *structural), of(b, *structural), strict=True))
        # morph fractions are a seeded permutation of the same grid, so the
        # two orders differ but the grid positions are the same objects
        morphs_a, morphs_b = of(a, "morph"), of(b, "morph")
        assert [op.describe for op in morphs_a] != [op.describe for op in morphs_b]
        shared = {id(op) for op in morphs_a} & {id(op) for op in morphs_b}
        assert len(shared) >= len(morphs_a) // 2

    def test_whole_plan_holds_few_distinct_operators(self):
        from repro.llm import get_model

        sequences = [
            get_model(model).provider._cell_ops(intent, key)
            for (model, key), intent in _plan_cells().items()
        ]
        assert len(sequences) == 232  # the plan's calibrated cells
        total = sum(map(len, sequences))
        distinct = {id(op) for ops in sequences for op in ops}
        # each cell used to build its own copies: ~40k objects per plan.
        # Shared, the plan holds ~2.4k, most of them morphs: a morph's
        # fraction is a point of a seeded grid that depends on the cell's
        # line counts, and two fractions that differ act differently
        assert total > 30_000
        assert len(distinct) <= 2_500


class TestReplaceWord:
    """Filtering lines on ``old in line`` never changes a rename."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.lists(st.sampled_from(["a", "a.b", "ab", "x_a", "a(", "(a)", " ",
                                     "é", "aé", "1a", "[", "]", "+", "\\", "$"]),
                     max_size=6).map("".join),
            max_size=6,
        ),
        old=st.sampled_from(["a", "a.b", "a(", "x_a", "é", "[a]", "a+", "$", "\\d",
                             "(a)", ""]),
        new=st.sampled_from(["b", "", "a", "\\g<0>", "z z"]),
    )
    def test_equals_per_line_regex(self, lines, old, new):
        pattern = re.compile(rf"\b{re.escape(old)}\b")
        assert _replace_word(lines, old, new) == [pattern.sub(new, ln) for ln in lines]


def _count_delta_calls(monkeypatch) -> list[int]:
    """Depths per ``delta_stats`` call, appended as calls are made."""
    delta_calls: list[int] = []
    real_delta = _Kernel.delta_stats

    def delta_stats(self, running, removed, added, lengths):
        delta_calls.append(len(added))
        return real_delta(self, running, removed, added, lengths)

    monkeypatch.setattr(_Kernel, "delta_stats", delta_stats)
    return delta_calls


class TestQualityCurve:
    """The incremental curve must match the from-scratch construction."""

    def _ops(self):
        return build_ops(REF, wilkins_knowledge(), seed_labels=("t",))

    def test_texts_match_apply_ops_at_every_depth(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        for k in range(len(ops) + 1):
            assert curve.text(k) == apply_ops(REF, ops, k)

    def test_scores_match_naive_curve_bitwise(self):
        ops = self._ops()
        naive = [bleu(apply_ops(REF, ops, k), REF) for k in range(len(ops) + 1)]
        assert QualityCurve(REF, ops).scores() == naive

    def test_depth_clamping_matches_apply_ops(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        assert curve.text(-3) == REF
        assert curve.text(len(ops) + 10) == apply_ops(REF, ops, len(ops))

    def test_scores_memoized(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        curve.score(5)
        curve.score(5)
        curve.score(3)
        assert curve.scores_computed == 2

    def test_best_breaks_ties_toward_lowest_depth(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        k, err = curve.best(curve.score(4), lo=0, hi=len(ops))
        assert curve.score(k) == curve.score(4)
        assert k <= 4
        assert err == 0.0

    @staticmethod
    def _naive_recalibrate(ops, target, center, reference=REF):
        """The pre-engine implementation: score every window depth from
        scratch, with the historical full-scan fallback."""
        lo, hi = max(0, center - 8), min(len(ops), center + 8)
        best_k, best_err = center, float("inf")
        for k in range(lo, hi + 1):
            err = abs(bleu(apply_ops(reference, ops, k), reference) - target)
            if err < best_err:
                best_k, best_err = k, err
        if best_err > 6.0:
            for k, score in enumerate(quality_curve(reference, ops)):
                err = abs(score - target)
                if err < best_err:
                    best_k, best_err = k, err
        return best_k

    def test_local_recalibrate_matches_naive_window_search(self):
        ops = self._ops()
        target = 70.0
        center = calibrate(REF, ops, target).k
        for trial in range(6):
            epoch_ops = shuffle_within_bands(ops, rng_for("recal", trial))
            got = local_recalibrate(REF, epoch_ops, target, center=center)
            assert got == self._naive_recalibrate(epoch_ops, target, center), (
                f"trial {trial}"
            )

    @pytest.mark.parametrize("system", ["wilkins", "henson", "adios2"])
    @pytest.mark.parametrize("target", [25.0, 50.0, 85.0])
    def test_local_recalibrate_matches_naive_search_across_cells(self, system,
                                                                 target):
        reference = reference_config(system)
        ops = build_ops(reference, wilkins_knowledge(), seed_labels=(system,))
        # the calibrated depth mostly keeps the window; a third of the
        # way in mostly sends the search to the fallback scan
        centers = (calibrate(reference, ops, target).k, len(ops) // 3)
        for center in centers:
            for trial in range(3):
                epoch_ops = shuffle_within_bands(
                    ops, rng_for("recal", system, trial)
                )
                curve = QualityCurve(reference, epoch_ops)
                got = local_recalibrate(reference, epoch_ops, target,
                                        center=center, curve=curve)
                assert got == self._naive_recalibrate(
                    epoch_ops, target, center, reference=reference
                ), f"center {center}, trial {trial}"
                _, window_err = curve.best(target, center - 8, center + 8)
                if window_err > 6.0:  # the fallback scored every depth once
                    assert curve.scores_computed == len(curve)

    def test_local_recalibrate_keeps_the_window_pick_on_a_tie(self):
        # every depth from 1 on holds the same text, far from the target,
        # so the window [4, 20] misses and the fallback scan finds depth 1
        # with exactly the window's best error: the window's pick stands
        half = CorruptionOp("edit", 1, "drop half", lambda ls: ls[: len(ls) // 2])
        identity = CorruptionOp("edit", 1, "identity", lambda ls: ls)
        ops = [half] + [identity] * 20
        target, center = 10.0, 12
        curve = QualityCurve(REF, ops)
        window_k, window_err = curve.best(target, center - 8, center + 8)
        assert (window_k, window_err > 6.0) == (4, True)
        assert curve.best(target) == (1, window_err)
        got = local_recalibrate(REF, ops, target, center=center)
        assert got == self._naive_recalibrate(ops, target, center) == 4

    def test_local_recalibrate_reuses_supplied_curve(self):
        ops = self._ops()
        curve = QualityCurve(REF, ops)
        k = local_recalibrate(REF, ops, 70.0, center=10, curve=curve)
        computed = curve.scores_computed
        assert computed > 0
        # a second search over the same window re-scores nothing
        assert local_recalibrate(REF, ops, 70.0, center=10, curve=curve) == k
        assert curve.scores_computed == computed

    @staticmethod
    def _changed_depths(ops):
        """Depths whose line list differs from the previous depth's.

        Replays ``ops`` from the reference, independently of the curve;
        depth 0 always counts (a walk starts from the empty state).
        """
        states = [REF.split("\n")]
        for op in ops:
            states.append(op.apply(states[-1]))
        return [k for k in range(len(states)) if k == 0 or states[k] != states[k - 1]]

    def test_batched_scores_equal_per_depth_reference(self, monkeypatch):
        delta_calls = _count_delta_calls(monkeypatch)
        ops = self._ops()
        assert len(ops) + 1 > 64
        curve = QualityCurve(REF, ops)
        expected = [bleu(curve.text(k), curve.reference) for k in range(len(curve))]
        assert curve.scores() == expected
        # only the depths whose state changed reach the kernel
        changed = self._changed_depths(ops)
        assert len(changed) < len(curve)
        assert delta_calls == [len(changed)]
        assert curve.scores_computed == len(curve)
        # a scored range costs no further kernel call
        curve.best(50.0, 3, 40)
        assert delta_calls == [len(changed)]

    def test_dashed_line_mid_range_keeps_one_delta_stats_call(self, monkeypatch):
        delta_calls = _count_delta_calls(monkeypatch)
        base = self._ops()
        mid = len(base) // 2
        # a ``-``-ended line does not tokenize line by line: the changed
        # depths that carry it swap in their whole text's tokens, in the
        # same walk as the depths around them
        ops = (
            base[:mid]
            + [CorruptionOp("edit", 1, "dash", lambda ls: ["work-"] + ls)]
            + base[mid : mid + 1]
            + [CorruptionOp("edit", 1, "undash",
                            lambda ls: [ln for ln in ls if ln != "work-"])]
            + base[mid + 1 :]
        )
        curve = QualityCurve(REF, ops)
        assert len(curve) > 64
        expected = [bleu(curve.text(k), curve.reference) for k in range(len(curve))]
        assert curve.scores() == expected
        changed = self._changed_depths(ops)
        dashed = [k for k in changed if "work-" in curve.text(k).split("\n")]
        assert dashed[0] == mid + 1 and dashed[-1] <= mid + 2
        assert delta_calls == [len(changed)]
        assert curve.scores_computed == len(curve)

    def test_unchanged_states_reuse_previous_score(self, monkeypatch):
        delta_calls = _count_delta_calls(monkeypatch)
        base = self._ops()
        identity = CorruptionOp("edit", 1, "identity", lambda ls: ls)
        absent = CorruptionOp("rename", 1, "rename absent",
                              lambda ls: _replace_word(ls, "no_such_word", "x"))
        morph = CorruptionOp("morph", 3, "morph line at 0.50",
                             lambda ls: _morph_line(ls, 0.5, ["morphed = 1"]))
        # depths 4..6 and 8 repeat the state before them
        ops = [*base[:2], morph, morph, identity, absent, base[2], absent, *base[3:8]]
        unchanged = [4, 5, 6, 8]
        assert [k for k in range(len(ops) + 1)
                if k not in self._changed_depths(ops)] == unchanged
        curve = QualityCurve(REF, ops)
        expected = [bleu(curve.text(k), curve.reference) for k in range(len(curve))]
        # a range that starts on a run of unchanged states whose previous
        # depth is scored: the run copies, only depth 7 reaches the kernel
        assert curve.score(3) == expected[3]
        assert delta_calls == [1]
        curve.best(50.0, 4, 7)
        assert delta_calls == [1, 1]
        assert [curve.score(k) for k in range(3, 8)] == expected[3:8]
        # the same run with an unscored previous depth: its first depth
        # is walked in full, the rest copy
        fresh = QualityCurve(REF, ops)
        fresh.best(50.0, 5, 8)
        assert delta_calls == [1, 1, 2]
        assert [fresh.score(k) for k in range(5, 9)] == expected[5:9]
        # the rest of both curves, checked at every depth
        assert curve.scores() == expected
        assert fresh.scores() == expected
        assert curve.scores_computed == len(curve)
        assert fresh.scores_computed == len(fresh)

    def test_batched_scores_equal_per_depth_reference_on_code_overflow(
        self, monkeypatch
    ):
        # ~47k distinct tokens: the order-2 table passes the cap, so no
        # token kernel exists and every depth is scored whole through the
        # fallback calibration binds
        import repro.llm.calibration as calibration

        fallback_calls = []
        real = calibration.bleu_compiled

        def counted(hyp, ref):
            fallback_calls.append(hyp)
            return real(hyp, ref)

        monkeypatch.setattr(calibration, "bleu_compiled", counted)
        reference = "\n".join(
            " ".join(f"w{line}x{i}" for i in range(470)) for line in range(100)
        )
        ops = [
            CorruptionOp("drop", 1, f"drop line {j}", lambda lines: lines[1:])
            for j in range(5)
        ]
        curve = QualityCurve(reference, ops)
        assert _token_kernel(curve.compiled) is None
        expected = [bleu(curve.text(k), curve.reference) for k in range(len(curve))]
        assert curve.scores() == expected
        assert fallback_calls == [curve.text(k) for k in range(len(curve))]

    def test_scores_computed_counts_exactly_the_depths_scored(self):
        ops = self._ops()
        center, window = 10, 8
        lo, hi = center - window, center + window
        # target inside the window: no fallback, exactly the window is scored
        near = QualityCurve(REF, ops)
        local_recalibrate(REF, ops, 70.0, center=center, window=window, curve=near)
        assert near.scores_computed == hi - lo + 1
        # target far below the window: the fallback adds exactly the rest
        far = QualityCurve(REF, ops)
        _, err = far.best(0.0, lo, hi)
        assert err > 6.0 and far.scores_computed == hi - lo + 1
        local_recalibrate(REF, ops, 0.0, center=center, window=window, curve=far)
        assert far.scores_computed == len(far)
        # repeating either search scores nothing
        local_recalibrate(REF, ops, 70.0, center=center, window=window, curve=near)
        local_recalibrate(REF, ops, 0.0, center=center, window=window, curve=far)
        assert near.scores_computed == hi - lo + 1
        assert far.scores_computed == len(far)


# line fragments covering the 13a rules a per-line delta must respect:
# ``.``/``,`` next to digits, dashes, entities, blanks, and the two that
# stop a text from tokenizing line by line: a trailing ``-`` (mteval
# joins the lines) and ``\r`` (rewrites the line breaks)
_COMMON = ("cfg", "x1", "7", ".", ",", " ", "(", ":", "=", "3.5", "1,000",
           "a-b", "&amp;", "&lt;", ".5", ",2", "7.", "1,")
_RARE = ("-", "9-", "\r")  # make the state unsplittable: rare, or few deltas
_fragment = st.one_of(*[st.sampled_from(_COMMON)] * 8, st.sampled_from(_RARE))
_line = st.lists(_fragment, max_size=4).map("".join)
# an inserted "line" holding a newline is really two lines
_new_line = _line | st.tuples(_line, _line).map("\n".join)
_pos = st.sampled_from(["first", "last"]) | st.integers(0, 12)
_op_spec = st.one_of(
    st.tuples(st.just("edit"), _pos, _new_line),
    st.tuples(st.just("insert"), _pos, _new_line),
    st.tuples(st.just("delete"), _pos),
    st.tuples(st.just("replace"), st.lists(_line, max_size=4)),
)


def _index(lines: list[str], pos, *, insert: bool = False) -> int:
    size = len(lines) + insert
    if pos == "first":
        return 0
    if pos == "last":
        return size - 1
    return pos % size


def _spec_op(spec) -> CorruptionOp:
    kind = spec[0]
    if kind == "edit":
        def apply(lines, pos=spec[1], new=spec[2]):
            if not lines:
                return lines
            out = list(lines)
            out[_index(lines, pos)] = new
            return out
    elif kind == "insert":
        def apply(lines, pos=spec[1], new=spec[2]):
            i = _index(lines, pos, insert=True)
            return lines[:i] + [new] + lines[i:]
    elif kind == "delete":
        def apply(lines, pos=spec[1]):
            if not lines:
                return lines
            i = _index(lines, pos)
            return lines[:i] + lines[i + 1 :]
    else:
        def apply(_lines, new=spec[1]):
            return list(new)
    return CorruptionOp(kind, 1, repr(spec), apply)


def _per_depth_bleu(reference: str, ops: list[CorruptionOp]) -> list[float]:
    """``bleu(apply_ops(reference, ops, k), reference)`` for every k."""
    lines = reference.split("\n")
    expected = [bleu(reference, reference)]
    for op in ops:
        lines = op.apply(lines)
        expected.append(bleu("\n".join(lines), reference))
    return expected


def _plan_curves():
    """(reference, ops) of the 7 plan references on o3's calibration order."""
    profile = ALL_PROFILES["o3"]()
    cells = [("configuration", s, reference_config(s))
             for s in ("wilkins", "henson", "adios2")]
    cells += [("annotation", s, annotated_producer(s))
              for s in ("adios2", "henson", "parsl", "pycompss")]
    for experiment, system, reference in cells:
        ops = build_ops(
            reference,
            profile.knowledge_for(experiment, system),
            chrf_bias=profile.bias_for(experiment, system),
            seed_labels=(profile.name, experiment, system),
        )
        yield f"{experiment}/{system}", reference, ops


class TestDeltaScoring:
    """The per-depth n-gram delta walk must equal scoring every text whole."""

    @settings(max_examples=300, deadline=None)
    @given(
        ref_lines=st.lists(_line, max_size=8),
        specs=st.lists(_op_spec, min_size=1, max_size=12),
        window=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    )
    # a line changes its 13a boundary context when it becomes, or stops
    # being, the text's first or last line
    @example(["a", "7."], [("insert", "last", "b")], (12, 12))
    @example(["a", ".5"], [("delete", "first")], (12, 12))
    @example(["a", "9-"], [("insert", "last", "b")], (12, 12))
    def test_curve_equals_per_depth_reference(self, ref_lines, specs, window):
        reference = "\n".join(ref_lines)
        ops = [_spec_op(spec) for spec in specs]
        expected = _per_depth_bleu(reference, ops)
        curve = QualityCurve(reference, ops)
        # score a window first, so the walk also steps across a gap
        curve.best(50.0, min(window), max(window))
        assert curve.scores() == expected
        assert curve.scores_computed == len(curve)

    @pytest.mark.parametrize("shuffle", [None, 1, 2])
    def test_plan_references_equal_per_depth_reference(self, shuffle):
        for name, reference, ops in _plan_curves():
            if shuffle is not None:
                ops = shuffle_within_bands(ops, rng_for("delta", name, shuffle))
            got = QualityCurve(reference, ops).scores()
            assert got == _per_depth_bleu(reference, ops), name

    def test_delta_walk_needs_no_whole_text_scoring(self, monkeypatch):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        expected = QualityCurve(REF, ops).scores()
        far = QualityCurve(REF, ops)
        expected_k = local_recalibrate(REF, ops, 0.0, center=10, curve=far)

        def whole_text_scoring(*args, **kwargs):
            raise AssertionError("whole-text scoring used")

        monkeypatch.setattr("repro.llm.calibration.bleu_compiled", whole_text_scoring)
        assert QualityCurve(REF, ops).scores() == expected
        # target far below the window: the full-scan fallback runs too
        curve = QualityCurve(REF, ops)
        assert local_recalibrate(REF, ops, 0.0, center=10, curve=curve) == expected_k
        assert curve.scores_computed == len(curve)

    @staticmethod
    def _walked(monkeypatch, reference, ops):
        """Per-depth BLEU of a fresh curve over ``ops`` (pinned ``==`` to
        :func:`bleu` of every text), and its ``delta_stats`` depths per call."""
        delta_calls = _count_delta_calls(monkeypatch)
        curve = QualityCurve(reference, ops)
        assert curve.scores() == _per_depth_bleu(reference, ops)
        return delta_calls

    @pytest.mark.parametrize(
        "bad_line", ["work-", "carriage\rreturn", "two\nlines"]
    )
    def test_states_not_split_by_lines_score_their_text(self, monkeypatch, bad_line):
        ops = [
            CorruptionOp("edit", 1, "bad line", lambda ls: [bad_line] + ls),
            CorruptionOp("edit", 1, "drop it", lambda ls: ls[1:]),
            CorruptionOp("edit", 1, "drop more", lambda ls: ls[2:]),
        ]
        # every depth changes its state: all four are walked in one call
        assert self._walked(monkeypatch, REF, ops) == [len(ops) + 1]

    def test_crlf_reference_walks_every_state_whole(self, monkeypatch):
        # each line but the last keeps its "\r": no state tokenizes line by line
        reference = REF.replace("\n", "\r\n")
        ops = [
            CorruptionOp("drop", 1, "drop first", lambda ls: ls[1:]),
            CorruptionOp("edit", 1, "edit", lambda ls: ls[:2] + ["x = 1\r"] + ls[3:]),
            CorruptionOp("drop", 1, "drop last", lambda ls: ls[:-1]),
            CorruptionOp("drop", 1, "drop middle", lambda ls: ls[:4] + ls[6:]),
        ]
        assert self._walked(monkeypatch, reference, ops) == [len(ops) + 1]

    def test_bad_good_bad_states_in_one_walk(self, monkeypatch):
        # the walk leaves a whole-text state for a line-split one and back
        ops = [
            CorruptionOp("edit", 1, "dash", lambda ls: ["work-"] + ls),
            CorruptionOp("edit", 1, "undash", lambda ls: ls[1:]),
            CorruptionOp("drop", 1, "drop", lambda ls: ls[:3] + ls[4:]),
            CorruptionOp("edit", 1, "cr", lambda ls: ls[:2] + ["a\rb"] + ls[2:]),
            CorruptionOp("edit", 1, "uncr", lambda ls: ls[:2] + ls[3:]),
        ]
        assert self._walked(monkeypatch, REF, ops) == [len(ops) + 1]

    def test_whole_text_state_to_whole_text_state(self, monkeypatch):
        # each state replaces the previous whole-text pseudo-line with its own
        ops = [
            CorruptionOp("edit", 1, "dash", lambda ls: ["work-"] + ls),
            CorruptionOp("edit", 1, "cr", lambda ls: ["a\rb"] + ls[1:]),
            CorruptionOp("edit", 1, "both", lambda ls: ["work-", "a\rb"] + ls[1:]),
            CorruptionOp("drop", 1, "drop", lambda ls: ls[:4] + ls[5:]),
        ]
        assert self._walked(monkeypatch, REF, ops) == [len(ops) + 1]

    @pytest.mark.parametrize("reference", [
        "", " ", "x", "ünïcode é 世界 🎉", "\ud800 lone surrogate", REF,
    ], ids=["empty", "blank", "one-char", "unicode", "surrogate", "wilkins"])
    def test_edge_case_states_equal_per_depth_reference(self, reference):
        # every state is an edge-case text: blank, whitespace-only,
        # unicode, a lone surrogate, an unsplittable line, the empty text
        texts = ["", " ", "\n\n", "\t \n", "x", "ünïcode é 世界 🎉",
                 "\ud800 lone surrogate", "a" * 300, "work-\nx", ""]
        ops = [
            CorruptionOp("replace", 1, repr(text),
                         lambda _ls, text=text: text.split("\n"))
            for text in texts
        ]
        curve = QualityCurve(reference, ops)
        assert curve.scores() == _per_depth_bleu(reference, ops)
        assert curve.scores_computed == len(curve)


class TestCalibration:
    def test_hits_targets_across_range(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        for target in (95.0, 70.0, 40.0, 20.0):
            result = calibrate(REF, ops, target)
            assert abs(result.achieved_bleu - target) <= 8.0

    def test_target_100_is_k0(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        assert calibrate(REF, ops, 100.0).k == 0

    def test_out_of_range_target(self):
        ops = build_ops(REF, wilkins_knowledge(), seed_labels=("t",))
        with pytest.raises(CalibrationError):
            calibrate(REF, ops, 150.0)

    def test_unreachable_target_raises(self):
        # only mild ops: cannot reach BLEU 10
        ops = build_ops(REF, SystemKnowledge(), seed_labels=("t",))
        with pytest.raises(CalibrationError, match="cannot reach"):
            calibrate(REF, ops, 10.0)


CFG_PROMPT = (
    "I would like to have a 3-node workflow consisting of one producer and two "
    "consumer tasks, where producer generates grid and particles datasets, "
    "consumer1 reads grid and consumer2 reads particles datasets. Producer "
    "requires 3 processes, and each consumer runs on a single process. Please "
    "provide the workflow configuration file for the Wilkins workflow system."
)


class TestSimulatedModels:
    def test_deterministic_given_seed(self):
        model = get_model("sim/o3")
        a = model.generate(CFG_PROMPT, GenerateConfig(seed=3)).completion
        b = model.generate(CFG_PROMPT, GenerateConfig(seed=3)).completion
        assert a == b

    def test_seeds_vary_output_for_jittery_models(self):
        model = get_model("sim/gemini-2.5-pro")
        outputs = {
            model.generate(CFG_PROMPT, GenerateConfig(seed=s)).completion
            for s in range(4)
        }
        assert len(outputs) > 1

    def test_claude_identical_across_seeds(self):
        model = get_model("sim/claude-sonnet-4")
        payloads = {
            strip_markdown_chatter(
                model.generate(CFG_PROMPT, GenerateConfig(seed=s)).completion
            )
            for s in range(4)
        }
        assert len(payloads) == 1

    def test_temperature_zero_deterministic_for_all(self):
        for name in ("sim/gemini-2.5-pro", "sim/llama-3.3-70b"):
            model = get_model(name)
            payloads = {
                strip_markdown_chatter(
                    model.generate(
                        CFG_PROMPT,
                        GenerateConfig(temperature=0.0, top_p=0.95, seed=s),
                    ).completion
                )
                for s in range(3)
            }
            assert len(payloads) == 1, name

    def test_o3_ignores_sampling_params(self):
        model = get_model("sim/o3")
        out = model.generate(CFG_PROMPT, GenerateConfig(temperature=0.0, seed=1))
        assert out.params_applied is False
        # o3 still varies across seeds despite temperature=0 in the request
        other = model.generate(CFG_PROMPT, GenerateConfig(temperature=0.0, seed=2))
        assert isinstance(other.completion, str)

    def test_usage_accounting(self):
        out = get_model("sim/o3").generate(CFG_PROMPT, GenerateConfig(seed=0))
        assert out.usage.input_tokens > 20
        assert out.usage.output_tokens > 20
        assert out.usage.total_tokens == (
            out.usage.input_tokens + out.usage.output_tokens
        )

    def test_prompt_tokens_counted_once_per_distinct_prompt(self):
        from repro.llm.simulated import SimulatedModel
        from repro.llm.tokenizer import encode
        from repro.llm.types import ChatMessage

        model = SimulatedModel(ALL_PROFILES["gemini-2.5-pro"]())
        usages = [model.generate([ChatMessage.user(CFG_PROMPT)],
                                 GenerateConfig(seed=s)).usage
                  for s in range(3)]
        assert {usage.input_tokens for usage in usages} == {len(encode(CFG_PROMPT))}
        # the completions differ across seeds; the prompt was counted once
        assert len({usage.output_tokens for usage in usages}) > 1
        info = model._prompt_tokens.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert model._prompt_tokens(CFG_PROMPT) == len(encode(CFG_PROMPT))

    def test_completion_is_fenced_with_chatter(self):
        out = get_model("sim/gemini-2.5-pro").generate(CFG_PROMPT, GenerateConfig(seed=0))
        assert "```" in out.completion
        payload = strip_markdown_chatter(out.completion)
        assert payload and "```" not in payload

    def test_metadata_carries_intent(self):
        out = get_model("sim/o3").generate(CFG_PROMPT, GenerateConfig(seed=0))
        intent = out.metadata["intent"]
        assert intent.experiment == "configuration"
        assert intent.system == "wilkins"

    def test_annotation_generation_scores_in_band(self):
        prompt = (
            "You are assisting in the development of a simple producer-consumer "
            "workflow using the PyCOMPSs system. The producer task code is "
            "provided below. Annotate this task code in order to use it with "
            "the PyCOMPSs system.\n\n<code>"
        )
        model = get_model("sim/gemini-2.5-pro")
        ref = annotated_producer("pycompss")
        scores = [
            bleu(
                strip_markdown_chatter(
                    model.generate(prompt, GenerateConfig(seed=s)).completion
                ),
                ref,
            )
            for s in range(3)
        ]
        # paper target 89.3 for this cell
        assert 80.0 <= sum(scores) / len(scores) <= 98.0

    def test_empty_prompt_rejected(self):
        from repro.errors import GenerationError

        with pytest.raises(GenerationError):
            get_model("sim/o3").generate("   ", GenerateConfig())


ANN_PROMPT = (
    "You are assisting in the development of a simple producer-consumer "
    "workflow using the PyCOMPSs system. The producer task code is "
    "provided below. Annotate this task code in order to use it with "
    "the PyCOMPSs system.\n\n<code>"
)


class TestCalibratedCells:
    """A cached cell keeps the text at its calibrated depth, not a curve."""

    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    @pytest.mark.parametrize("prompt", [CFG_PROMPT, ANN_PROMPT],
                             ids=["configuration", "annotation"])
    def test_cell_text_is_the_calibrated_prefix(self, name, prompt):
        provider = get_model(f"sim/{name}").provider
        intent = analyze_prompt(prompt)
        cell = provider._cell(intent)
        assert cell.compiled.text == provider.reference_for(intent)
        assert cell.text == apply_ops(cell.compiled.text, cell.ops, cell.calib.k)

    @pytest.mark.parametrize("name", ["claude-sonnet-4", "gemini-2.5-pro",
                                      "llama-3.3-70b"])
    def test_deterministic_decoding_returns_the_cell_text(self, name):
        provider = get_model(f"sim/{name}").provider
        out = provider.generate(
            [ChatMessage.user(CFG_PROMPT)],
            GenerateConfig(temperature=0.0, top_p=0.95, seed=3),
        )
        cell = provider._cell(analyze_prompt(CFG_PROMPT))
        assert f"\n{cell.text}\n```" in out.completion


class TestProfiles:
    def test_all_profiles_have_full_target_coverage(self):
        from repro.data import PROMPT_VARIANTS

        cells = (
            [("configuration", s) for s in ("adios2", "henson", "wilkins")]
            + [("annotation", s) for s in ("adios2", "henson", "pycompss", "parsl")]
            + [
                ("translation", ("henson", "adios2")),
                ("translation", ("adios2", "henson")),
                ("translation", ("parsl", "pycompss")),
                ("translation", ("pycompss", "parsl")),
            ]
        )
        for name, factory in ALL_PROFILES.items():
            profile = factory()
            for experiment, system_key in cells:
                for variant in PROMPT_VARIANTS:
                    target = profile.target_for(experiment, system_key, variant)
                    assert 0.0 <= target <= 100.0, (name, experiment, system_key)

    def test_fewshot_targets_above_zero_shot(self):
        for factory in ALL_PROFILES.values():
            profile = factory()
            for system in ("adios2", "henson", "wilkins"):
                zero = profile.target_for("configuration", system, "original")
                few = profile.target_for("configuration", system, "original", True)
                assert few > zero

    def test_claude_has_zero_jitter(self):
        assert ALL_PROFILES["claude-sonnet-4"]().epoch_jitter == 0.0

    def test_o3_ignores_params_flag(self):
        assert ALL_PROFILES["o3"]().ignore_sampling_params is True

    def test_knowledge_fallback_is_empty(self):
        profile = ALL_PROFILES["o3"]()
        knowledge = profile.knowledge_for("annotation", "nonexistent-system")
        assert knowledge.confusions == {}
