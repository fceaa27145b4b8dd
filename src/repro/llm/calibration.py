"""Calibration: choose the corruption depth that hits a target score.

Given an ordered operator sequence, the quality curve ``BLEU(k)`` for
``k = 0..N`` is evaluated through an incremental :class:`QualityCurve`:
prefix ``k`` is built by applying *one* operator to prefix ``k-1``
(O(N) total op applications, versus O(N²) when every prefix replays
from scratch), and every depth is scored once and memoized.  Scoring
follows the same shape: an operator changes about one line, so a
:class:`_DeltaWalk` re-tokenizes only the lines that differ from the
previous depth, and one
:meth:`repro.metrics.kernels._Kernel.delta_stats` call per range query
turns those differences into every depth's clipped n-gram counts, at a
cost that scales with the changed n-grams that hit the reference rather
than with depths × reference n-grams.  A depth whose line list equals
the previous depth's (about two in five: no-op deletions, renames of
absent words, morphs that rewrite a line into itself) takes the
previous depth's score without reaching the kernel.  A state whose text
does not tokenize line by line is walked too: its whole text's tokens
replace the id stream.  Only a reference with no token kernel (its
n-gram tables would pass the cap) is scored per depth, through
:func:`repro.metrics.kernels.bleu_compiled`.  Every score is bit-equal
to the reference :func:`~repro.metrics.bleu`, so the chosen depths are
exactly those of a per-depth scalar scan.
Texts are joined only for the depths callers read.  The k with minimum
``|BLEU(k) − target|`` is selected by a straight scan rather than
bisection because the curve is only *approximately* monotone —
individual operators vary in impact.

This module stays pure: the simulator caches each cell's calibration
(its :class:`QualityCurve`, compacted to the calibrated depth) per cell
key in ``SimulatedModel._cell``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain, compress
from operator import ne

import numpy as np

from repro.errors import CalibrationError
from repro.llm.corruption import CorruptionOp, apply_ops  # noqa: F401 (re-export)
from repro.metrics.kernels import (
    CompiledReference,
    _token_kernel,
    _TokenKernel,
    bleu_compiled,
    bleu_from_stats,
    compile_reference,
)
from repro.metrics.tokenizers import tokenize_13a_cached, tokenize_lines

@dataclass(frozen=True)
class CalibrationResult:
    """Chosen corruption depth and the achieved score."""

    k: int
    achieved_bleu: float
    target_bleu: float

    @property
    def error(self) -> float:
        return abs(self.achieved_bleu - self.target_bleu)


class QualityCurve:
    """Incrementally evaluated ``BLEU(k)`` over corruption prefixes.

    The curve extends lazily: asking for depth ``k`` applies only the
    operators beyond the deepest prefix built so far, and each depth's
    text and score are memoized.  A windowed search followed by a full
    scan (the ``local_recalibrate`` fallback) therefore never re-applies
    an operator or re-scores a depth.  Corruption operators never mutate
    their input line lists, so prefix states can be retained safely.

    Every range query (:meth:`scores`, :meth:`best`, the fallback scan)
    scores its unscored depths with one
    :meth:`~repro.metrics.kernels._Kernel.delta_stats` call, through
    a :class:`_DeltaWalk` that lives only for that query (the curve
    itself is shared across executor threads) — bit-equal to a
    per-depth reference :func:`~repro.metrics.bleu`.  Only the depths
    whose line list differs from the previous depth's reach the kernel;
    an unchanged depth copies the previous depth's score.
    ``scores_computed`` counts every depth that gets a score, copied or
    not.
    """

    __slots__ = ("reference", "ops", "compiled", "_states", "_texts", "_scores",
                 "_lock", "scores_computed")

    def __init__(
        self,
        reference: str,
        ops: list[CorruptionOp],
        *,
        compiled: CompiledReference | None = None,
    ) -> None:
        self.reference = reference
        self.ops = ops
        self.compiled = compiled if compiled is not None else compile_reference(reference)
        self._states: list[list[str]] = [reference.split("\n")]
        self._texts: dict[int, str] = {0: reference}
        self._scores: dict[int, float] = {}
        self._lock = threading.Lock()  # guards the _states extension
        self.scores_computed = 0  # instrumentation for benches and tests

    def __len__(self) -> int:
        """Number of depths on the curve (k = 0..len(ops))."""
        return len(self.ops) + 1

    def _state(self, k: int) -> list[str]:
        """The line list at depth ``k`` (clamped to ``0..len(ops)``)."""
        k = max(0, min(k, len(self.ops)))
        return self._states_through(k)[k]

    def _states_through(self, k: int) -> list[list[str]]:
        """The prefix states, extended through depth ``k`` (``<= len(ops)``).

        Thread-safe: curve objects are published process-wide inside the
        simulator's cached cells, so the lazy prefix extension is locked —
        once per call, however many depths it adds.
        """
        states = self._states
        if k < len(states):
            return states
        with self._lock:
            states, ops = self._states, self.ops
            while len(states) <= k:
                states.append(ops[len(states) - 1].apply(states[-1]))
            return states

    def text(self, k: int) -> str:
        """The artifact at depth ``k`` — identical to ``apply_ops(ref, ops, k)``."""
        k = max(0, min(k, len(self.ops)))
        text = self._texts.get(k)
        if text is None:
            text = self._texts[k] = "\n".join(self._state(k))
        return text

    def _score_range(self, lo: int, hi: int) -> None:
        """Score every unscored depth in ``[lo, hi]``, in one kernel call.

        A depth whose line list equals the previous depth's — a no-op
        operator, such as a rename of an absent word or a morph that
        rewrites a line into itself — takes that depth's score once the
        previous depth has one (scored earlier, or in this call), with
        no walk step.  The other depths go through one
        :class:`_DeltaWalk` that lives only for this call, or — when the
        reference has no token kernel — through :func:`bleu_compiled`
        on their text, one depth at a time.
        """
        scores = self._scores
        missing = [k for k in range(lo, hi + 1) if k not in scores]
        if not missing:
            return
        kernel = _token_kernel(self.compiled)
        walk = _DeltaWalk(kernel) if kernel is not None else None
        states = self._states_through(missing[-1])
        walked: list[int] = []
        same: list[int] = []
        for k in missing:
            if (k > lo or k - 1 in scores) and states[k] == states[k - 1]:
                same.append(k)
            elif walk is None:
                scores[k] = bleu_compiled(self.text(k), self.compiled)
            else:
                walk.step(states[k])
                walked.append(k)
        if walked:
            scores.update(zip(walked, walk.scores(self.compiled.ref_len)))
        for k in same:  # ascending, so a run of equal states chains
            scores[k] = scores[k - 1]
        self.scores_computed += len(missing)

    def score(self, k: int) -> float:
        """Memoized ``BLEU(text(k), reference)`` (``k`` clamped like :meth:`text`)."""
        k = max(0, min(k, len(self.ops)))
        score = self._scores.get(k)
        if score is None:
            self._score_range(k, k)
            score = self._scores[k]
        return score

    def scores(self) -> list[float]:
        """The full curve, depths 0..len(ops)."""
        self._score_range(0, len(self.ops))
        return [self._scores[k] for k in range(len(self))]

    def compact(self, keep: tuple[int, ...] = ()) -> None:
        """Release retained prefix states, texts and scores, keeping only ``keep``.

        A calibrated cell lives for the whole process but only ever
        re-reads the text at its calibrated depth; dropping the other
        N prefix strings, line-list states and depth scores frees ~N
        copies of the artifact per cell.  Any other depth's text and
        score can still be rebuilt on demand, bit-equal.
        """
        kept = {k: self.text(k) for k in keep}
        with self._lock:
            self._states = [self.reference.split("\n")]
            self._texts = {0: self.reference, **kept}
            self._scores = {k: self._scores[k] for k in keep if k in self._scores}

    def best(self, target: float, lo: int = 0, hi: int | None = None) -> tuple[int, float]:
        """(k, error) minimising ``|score(k) − target|`` over ``[lo, hi]``.

        Ties break toward the lowest depth, matching the historical
        straight-scan behaviour.
        """
        lo = max(lo, 0)
        hi = len(self.ops) if hi is None else min(hi, len(self.ops))
        self._score_range(lo, hi)
        best_k, best_err = lo, float("inf")
        for k in range(lo, hi + 1):
            err = abs(self._scores[k] - target)
            if err < best_err:
                best_k, best_err = k, err
        return best_k, best_err


class _DeltaWalk:
    """Token ids of one prefix state, moved from depth to depth by deltas.

    A corruption operator changes about one line, so depth ``k``'s token
    stream is depth ``k-1``'s with a short run of lines re-tokenized:
    :meth:`step` finds the lines the two states share at the front and
    back, tokenizes only the lines between, splices the id list, and
    queues the (removed, added) id windows.  A state that does not
    tokenize line by line (a ``\\r``, or a ``-`` ending a line other than
    the last) takes its whole text's tokens as one pseudo-line that no
    later state shares.  :meth:`scores` turns the queued windows into
    per-depth clipped counts with one :meth:`_Kernel.delta_stats` call.
    A walk starts from the empty state (so its first depth is counted in
    full) and may step between any two states, adjacent or not.
    """

    __slots__ = ("kernel", "context", "lines", "ids", "line_lens", "running",
                 "removed", "added", "lengths")

    def __init__(self, kernel: _TokenKernel) -> None:
        self.kernel = kernel
        # unchanged ids padded onto both sides of a window: max_order - 1
        self.context = len(kernel.ref_counts) - 1
        self.lines: list[str] = []
        self.ids: list[int] = []
        self.line_lens: list[int] = []  # tokens per line of ``lines``
        self.running = [np.zeros(len(ref_counts), dtype=np.int64)
                        for ref_counts in kernel.ref_counts]
        self.removed: list[list[int]] = []
        self.added: list[list[int]] = []
        self.lengths: list[int] = []

    def step(self, lines: list[str]) -> None:
        """Move to ``lines`` and queue its delta."""
        old = self.lines
        a, b = len(old), len(lines)
        # shared lines keep their 13a boundary context only while they
        # stay off the text's edges: the prefix never reaches either
        # state's last line, the suffix never either state's first
        m = min(a, b)
        p = _shared(old, lines, max(m - 1, 0))
        s = _shared(reversed(old), reversed(lines), max(min(m - 1, m - p), 0))
        per_line = tokenize_lines(lines[p : b - s], first=p == 0, last=s == 0)
        if per_line is None:
            # the whole stream is replaced; a single-line state shares
            # no line with the next one, whatever that holds
            p = s = 0
            per_line = [tokenize_13a_cached("\n".join(lines))]
            lines = [None]
        new_ids = self.kernel.token_ids(chain.from_iterable(per_line))
        ids, line_lens = self.ids, self.line_lens
        head = sum(line_lens[:p])
        tail = len(ids) - sum(line_lens[a - s :])
        left = max(0, head - self.context)
        right = tail + self.context
        self.removed.append(ids[left:right])
        ids[head:tail] = new_ids
        # the added window is the removed one's span, shifted by the splice
        self.added.append(ids[left : right + len(new_ids) - (tail - head)])
        line_lens[p : a - s] = map(len, per_line)
        self.lines = lines
        self.lengths.append(len(ids))

    def scores(self, ref_len: int) -> list[float]:
        """BLEU of every depth queued since the last call, in step order."""
        counts, totals = self.kernel.delta_stats(
            self.running, self.removed, self.added, self.lengths
        )
        out = bleu_from_stats(counts, totals, self.lengths, ref_len)
        self.removed, self.added, self.lengths = [], [], []
        return out


def _shared(xs, ys, limit: int) -> int:
    """Length of the common prefix of two iterables, at most ``limit``."""
    return next(compress(range(limit), map(ne, xs, ys)), limit)


def quality_curve(reference: str, ops: list[CorruptionOp]) -> list[float]:
    """``BLEU(apply_ops(reference, ops, k), reference)`` for k = 0..len(ops)."""
    return QualityCurve(reference, ops).scores()


def local_recalibrate(
    reference: str,
    ops: list[CorruptionOp],
    target_bleu: float,
    *,
    center: int,
    window: int = 8,
    curve: QualityCurve | None = None,
) -> int:
    """Re-pick the best depth in a window around ``center``.

    Used per trial after the within-band operator shuffle: the prefix at
    the calibrated depth contains the same *number* of operators but a
    different mix, so the achieved score drifts; a cheap local search
    around the calibrated depth re-centres each trial on the target
    before jitter is applied.

    Pass the trial's :class:`QualityCurve` as ``curve`` to reuse its
    prefix states and memoized scores (the fallback full scan then skips
    every depth the window search already evaluated).
    """
    if curve is None:
        curve = QualityCurve(reference, ops)
    lo = max(0, center - window)
    hi = min(len(ops), center + window)
    best_k, best_err = curve.best(target_bleu, lo, hi)
    if best_err > 6.0:
        # the shuffle moved the target region outside the window (small op
        # sets shift a lot); fall back to a full scan of this epoch's curve
        for k, score in enumerate(curve.scores()):
            err = abs(score - target_bleu)
            if err < best_err:
                best_k, best_err = k, err
    return best_k


def calibrate(
    reference: str,
    ops: list[CorruptionOp],
    target_bleu: float,
    *,
    tolerance: float = 8.0,
    curve: QualityCurve | None = None,
) -> CalibrationResult:
    """Pick the operator-prefix length whose BLEU is closest to the target.

    ``curve`` lets a caller hand in a pre-built :class:`QualityCurve`
    (and keep it for later reuse — the simulator's per-cell calibration
    does this so the deterministic generation path never re-applies ops).

    Raises :class:`CalibrationError` when the closest achievable score is
    farther than ``tolerance`` points from the target — that signals the
    operator pool lacks dynamic range for this cell (e.g. a missing
    ``worst_case`` artifact for a very low target).
    """
    if not 0.0 <= target_bleu <= 100.0:
        raise CalibrationError(f"target BLEU out of range: {target_bleu}")
    if curve is None:
        curve = QualityCurve(reference, ops)
    scores = curve.scores()
    best_k, _ = curve.best(target_bleu)
    result = CalibrationResult(
        k=best_k, achieved_bleu=scores[best_k], target_bleu=target_bleu
    )
    if result.error > tolerance:
        raise CalibrationError(
            f"cannot reach BLEU {target_bleu:.1f}: closest achievable is "
            f"{result.achieved_bleu:.1f} at k={best_k} "
            f"(curve range {min(scores):.1f}..{max(scores):.1f})"
        )
    return result
