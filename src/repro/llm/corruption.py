"""Corruption operators: how the simulator degrades a reference artifact.

The generation model: start from the ground-truth artifact and apply a
prefix of an ordered operator sequence.  Operators are grouped in
severity bands, mild → severe:

* **band 1** — benign drift: identifier renames, spurious comments
  (always available, any artifact format);
* **band 2** — the model's failure fingerprint: redundant insertions,
  API/field hallucinations, omissions of required calls (with a bias
  knob promoting insertions when the paper shows ChrF ≫ BLEU for the
  cell);
* **band 3** — *morphs*: line-by-line blending of the artifact toward
  the model's worst-case output, giving a smooth, format-agnostic
  quality descent;
* **bands 4-5** — structural collapse of growing tails of the artifact,
  then the worst-case artifact outright (task code instead of a config,
  an ADIOS2-shaped Henson API, ...);
* **band 6** — deep decay: identifier drift and line deletions that
  push the floor below what the worst case shares with the reference.

"Apply the first k" sweeps the quality scale from the perfect artifact
(k=0) to total confusion; calibration picks k to hit a target BLEU, and
per-epoch jitter perturbs k and the within-band order to produce
trial-to-trial variance.

Operators are values.  Each one is a module-level function bound to its
parameters (a rename's old and new word, a morph's fraction and worst
case, ...), built once per process by a cached factory, so every cell's
sequence — and every trial's shuffle of it — is a list of references
to shared objects rather than its own copies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from repro.llm.knowledge import SystemKnowledge
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class CorruptionOp:
    """One textual degradation step."""

    # comment | rename | insert | confuse | drop | morph | collapse |
    # restructure | decay-rename | decay-delete
    kind: str
    band: int  # severity band; ops apply in band order
    describe: str
    apply: Callable[[list[str]], list[str]]


def _replace_word(lines: list[str], old: str, new: str) -> list[str]:
    # ``\bold\b`` can only match a line that contains ``old``
    pattern = re.compile(rf"\b{re.escape(old)}\b")
    return [pattern.sub(new, ln) if old in ln else ln for ln in lines]


def _drop_anchor(lines: list[str], anchor: str) -> list[str]:
    for i, ln in enumerate(lines):
        if anchor in ln:
            return lines[:i] + lines[i + 1 :]
    return lines


def _insert_after(lines: list[str], anchor: str, new_line: str) -> list[str]:
    if not anchor:
        return lines + [new_line]
    for i, ln in enumerate(lines):
        if anchor in ln:
            indent = ln[: len(ln) - len(ln.lstrip())]
            return lines[: i + 1] + [indent + new_line.lstrip()] + lines[i + 1 :]
    return lines + [new_line]


def _comment_markers(reference: str) -> tuple[str, str]:
    """(prefix, suffix) of a line comment in the artifact's language."""
    if reference.lstrip().startswith("<?xml") or "</" in reference:
        return "<!-- ", " -->"
    if "#include" in reference or "int main" in reference:
        return "/* ", " */"
    return "# ", ""


_COMMENT_TEXTS = (
    "generated configuration",
    "workflow definition",
    "data requirements",
    "produced automatically",
    "simulation output",
    "analysis input",
)


def _append_comment(lines: list[str], slot: int, text: str, pre: str, suf: str) -> list[str]:
    real = [i for i, ln in enumerate(lines) if ln.strip()]
    if not real:
        return lines
    i = real[slot % len(real)]
    out = list(lines)
    out.insert(i, pre + text + suf)
    return out


def _morph_line(lines: list[str], fraction: float, worst_lines: Sequence[str]) -> list[str]:
    """Replace the line at relative position ``fraction`` with the
    corresponding worst-case line (gradual artifact decay)."""
    if not lines or not worst_lines:
        return lines
    i = min(int(round(fraction * (len(lines) - 1))), len(lines) - 1)
    j = min(int(round(fraction * (len(worst_lines) - 1))), len(worst_lines) - 1)
    out = list(lines)
    out[i] = worst_lines[j]
    return out


_DECAY_RENAMES = {
    "array": "buf",
    "sum": "local_sum",
    "total_sum": "global_total",
    "rank": "world_rank",
    "size": "world_size",
    "iterations": "num_steps",
    "sleep_interval": "delay_s",
    "n": "count",
    "t": "step",
    "producer": "writer_task",
    "consumer1": "reader_a",
    "consumer2": "reader_b",
    "grid": "mesh",
    "particles": "points",
    "printf": "fprintf",
    "malloc": "calloc",
    "float": "double",
    "main": "run_task",
    "MPI_COMM_WORLD": "world_comm",
    "MPI_Reduce": "MPI_Allreduce",
    "simulate_step": "do_step",
    "np": "numpy",
}


def _delete_line_at(lines: list[str], fraction: float) -> list[str]:
    """Delete the line at relative position ``fraction`` (keeps >= 3 lines)."""
    real = [i for i, ln in enumerate(lines) if ln.strip()]
    if len(real) <= 3:
        return lines
    i = real[min(int(round(fraction * (len(real) - 1))), len(real) - 1)]
    return lines[:i] + lines[i + 1 :]


def _collapse_tail(lines: list[str], fraction: float, worst_lines: Sequence[str]) -> list[str]:
    """Replace the trailing ``fraction`` of the artifact with the trailing
    ``fraction`` of the worst case (late-stage structural collapse)."""
    if not lines or not worst_lines:
        return lines
    keep = max(0, int(round(len(lines) * (1.0 - fraction))))
    tail_from = max(0, int(round(len(worst_lines) * (1.0 - fraction))))
    return [*lines[:keep], *worst_lines[tail_from:]]


# -- shared operators --------------------------------------------------------
# An operator's behaviour is fixed by its parameters, so each distinct one
# is built once per process: a cached factory binds a module-level op
# function to those parameters, and every cell sequence (and every trial's
# shuffle of it) holds references to the same objects.  The caches are
# bounded by the asset and profile set: the paper's whole plan needs about
# 2,400 operators (most of them morphs) where its cells hold ~40k.

_WORD_OPS = {  # kind -> (band, describe verb)
    "rename": (1, "rename"),
    "confuse": (2, "hallucinate"),
    "decay-rename": (6, "decay rename"),
}


@cache
def _comment_op(slot: int, text: str, markers: tuple[str, str]) -> CorruptionOp:
    pre, suf = markers
    return CorruptionOp(
        "comment", 1, f"spurious comment at slot {slot}",
        partial(_append_comment, slot=slot, text=text, pre=pre, suf=suf),
    )


@cache
def _word_op(kind: str, old: str, new: str) -> CorruptionOp:
    band, verb = _WORD_OPS[kind]
    return CorruptionOp(
        kind, band, f"{verb} {old} -> {new}", partial(_replace_word, old=old, new=new)
    )


@cache
def _insert_op(anchor: str, new_line: str) -> CorruptionOp:
    return CorruptionOp(
        "insert", 2, f"insert {new_line!r}",
        partial(_insert_after, anchor=anchor, new_line=new_line),
    )


@cache
def _drop_op(anchor: str) -> CorruptionOp:
    return CorruptionOp(
        "drop", 2, f"omit line containing {anchor!r}", partial(_drop_anchor, anchor=anchor)
    )


@cache
def _worst_lines(worst_case: str) -> tuple[str, ...]:
    """The worst case's lines, shared by all of its operators."""
    return tuple(worst_case.split("\n"))


@cache
def _morph_op(worst_case: str, fraction: float) -> CorruptionOp:
    return CorruptionOp(
        "morph", 3, f"morph line at {fraction:.2f}",
        partial(_morph_line, fraction=fraction, worst_lines=_worst_lines(worst_case)),
    )


@cache
def _collapse_op(worst_case: str, fraction: float) -> CorruptionOp:
    return CorruptionOp(
        "collapse", 4, f"collapse tail fraction {fraction:.2f}",
        partial(_collapse_tail, fraction=fraction, worst_lines=_worst_lines(worst_case)),
    )


def _emit_worst(lines: list[str], worst_lines: tuple[str, ...]) -> list[str]:
    """Discard the artifact: the worst case outright."""
    return list(worst_lines)


@cache
def _restructure_op(worst_case: str) -> CorruptionOp:
    return CorruptionOp(
        "restructure", 5, "emit worst-case artifact",
        partial(_emit_worst, worst_lines=_worst_lines(worst_case)),
    )


@cache
def _delete_op(fraction: float) -> CorruptionOp:
    return CorruptionOp(
        "decay-delete", 6, f"delete line at {fraction:.2f}",
        partial(_delete_line_at, fraction=fraction),
    )


def build_ops(
    reference: str,
    knowledge: SystemKnowledge,
    *,
    chrf_bias: float = 0.0,
    seed_labels: tuple = (),
) -> list[CorruptionOp]:
    """Construct the ordered operator sequence for one experiment cell.

    ``chrf_bias`` is (paper ChrF − paper BLEU): positive values mean the
    model's errors hurt BLEU more than ChrF (redundant insertions, word
    order), so insert ops are promoted ahead of drops and confusions.
    The operators themselves are shared process-wide (see the factories
    above); only the list is the cell's own.
    """
    ops: list[CorruptionOp] = []
    markers = _comment_markers(reference)
    n_lines = max(1, sum(1 for ln in reference.split("\n") if ln.strip()))

    # --- band 1: benign drift (comments first: each is a ~1-2 point step,
    # giving fine granularity near the top of the curve) ---------------------
    n_comments = max(3, n_lines // 4)
    rng = rng_for("comment-slots", *seed_labels)
    slots = rng.permutation(n_lines)[:n_comments].tolist()
    for idx, slot in enumerate(slots):
        ops.append(_comment_op(slot, _COMMENT_TEXTS[idx % len(_COMMENT_TEXTS)], markers))
    ops.extend(
        _word_op("rename", old, new)
        for old, new in knowledge.renames.items()
        if re.search(rf"\b{re.escape(old)}\b", reference)
    )

    # --- band 2: failure fingerprint -------------------------------------------
    band2 = [_insert_op(anchor, new_line) for anchor, new_line in knowledge.inserts]
    rest = [
        _word_op("confuse", old, new)
        for old, new in knowledge.confusions.items()
        if re.search(rf"\b{re.escape(old)}\b", reference)
    ]
    rest += [_drop_op(anchor) for anchor in knowledge.drops if anchor in reference]
    # ChrF-tolerant errors (insertions) first when the paper shows a gap
    ops.extend(band2 + rest if chrf_bias > 5 else rest + band2)

    # --- bands 3-4: descent into the worst case ------------------------------------
    worst = knowledge.worst_case
    if worst is not None:
        n_morphs = max(len(_worst_lines(worst)), n_lines, 16)
        morph_rng = rng_for("morph-order", *seed_labels)
        # two passes: the second uses offset alignment so repeated morphs of
        # the same position land a *different* worst-case line, pushing the
        # morph floor further down before structural collapse takes over
        fractions = (morph_rng.permutation(n_morphs) / max(1, n_morphs - 1)).tolist()
        fractions += [(f + 0.37) % 1.0 for f in fractions[: n_morphs // 2]]
        fractions += [(f + 0.73) % 1.0 for f in fractions[: n_morphs // 2]]
        ops.extend(_morph_op(worst, f) for f in fractions)
        # band 4: structural collapse of growing fractions of the artifact,
        # ending in the worst case outright.  Applied in fixed order (no
        # epoch shuffling for bands >= 4: see shuffle_within_bands) so the
        # descent stays controlled.
        ops.extend(_collapse_op(worst, i / 24.0) for i in range(1, 24))
        ops.append(_restructure_op(worst))

        # band 6: deep decay.  Worst-case artifacts still share simulation
        # boilerplate with the reference (both descend from the same base
        # producer), which floors BLEU around 40-55 for code artifacts.
        # Aggressive identifier drift plus line deletions push the floor
        # toward zero so very low paper scores are reachable.
        ops.extend(_word_op("decay-rename", old, new) for old, new in _DECAY_RENAMES.items())
        decay_rng = rng_for("decay-order", *seed_labels)
        deletions = (decay_rng.permutation(24) / 23.0).tolist()
        deletions += (decay_rng.permutation(24) / 23.0).tolist()
        ops.extend(_delete_op(f) for f in deletions)

    ops.sort(key=lambda op: op.band)
    return ops


def apply_ops(reference: str, ops: list[CorruptionOp], k: int) -> str:
    """Apply the first ``k`` operators to the reference text."""
    lines = reference.split("\n")
    for op in ops[: max(0, min(k, len(ops)))]:
        lines = op.apply(lines)
    return "\n".join(lines)


def shuffle_within_bands(
    ops: list[CorruptionOp], rng: np.random.Generator
) -> list[CorruptionOp]:
    """Permute operators inside each severity band (epoch-to-epoch variety).

    Bands 4+ (structural collapse / restructure) keep their fixed order:
    their steps are individually huge, so reordering them would swing a
    trial by tens of points rather than the paper-scale 1-3.
    """
    out: list[CorruptionOp] = []
    i = 0
    while i < len(ops):
        j = i
        while j < len(ops) and ops[j].band == ops[i].band:
            j += 1
        band = ops[i:j]
        if ops[i].band >= 4:
            out.extend(band)
        else:
            order = rng.permutation(len(band))
            out.extend(band[int(x)] for x in order)
        i = j
    return out
