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
* **band 4** — restructure: emit the worst-case artifact outright (task
  code instead of a config, an ADIOS2-shaped Henson API, ...).

"Apply the first k" sweeps the quality scale from the perfect artifact
(k=0) to total confusion; calibration picks k to hit a target BLEU, and
per-epoch jitter perturbs k and the within-band order to produce
trial-to-trial variance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.llm.knowledge import SystemKnowledge
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class CorruptionOp:
    """One textual degradation step."""

    kind: str  # rename | comment | insert | drop | confuse | morph | restructure
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


def _morph_line(lines: list[str], fraction: float, worst_lines: list[str]) -> list[str]:
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


def _collapse_tail(lines: list[str], fraction: float, worst_lines: list[str]) -> list[str]:
    """Replace the trailing ``fraction`` of the artifact with the trailing
    ``fraction`` of the worst case (late-stage structural collapse)."""
    if not lines or not worst_lines:
        return lines
    keep = max(0, int(round(len(lines) * (1.0 - fraction))))
    tail_from = max(0, int(round(len(worst_lines) * (1.0 - fraction))))
    return lines[:keep] + worst_lines[tail_from:]


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
    """
    ops: list[CorruptionOp] = []
    pre, suf = _comment_markers(reference)
    n_lines = max(1, sum(1 for ln in reference.split("\n") if ln.strip()))

    # --- band 1: benign drift (comments first: each is a ~1-2 point step,
    # giving fine granularity near the top of the curve) ---------------------
    n_comments = max(3, n_lines // 4)
    rng = rng_for("comment-slots", *seed_labels)
    slots = rng.permutation(n_lines)[:n_comments]
    for idx, slot in enumerate(slots):
        text = _COMMENT_TEXTS[idx % len(_COMMENT_TEXTS)]
        ops.append(
            CorruptionOp(
                "comment", 1, f"spurious comment at slot {int(slot)}",
                lambda lines, s=int(slot), t=text: _append_comment(lines, s, t, pre, suf),
            )
        )
    for old, new in knowledge.renames.items():
        if re.search(rf"\b{re.escape(old)}\b", reference):
            ops.append(
                CorruptionOp(
                    "rename", 1, f"rename {old} -> {new}",
                    lambda lines, o=old, n=new: _replace_word(lines, o, n),
                )
            )

    # --- band 2: failure fingerprint -------------------------------------------
    band2: list[CorruptionOp] = []
    for anchor, new_line in knowledge.inserts:
        band2.append(
            CorruptionOp(
                "insert", 2, f"insert {new_line!r}",
                lambda lines, a=anchor, nl=new_line: _insert_after(lines, a, nl),
            )
        )
    rest: list[CorruptionOp] = []
    for old, new in knowledge.confusions.items():
        if re.search(rf"\b{re.escape(old)}\b", reference):
            rest.append(
                CorruptionOp(
                    "confuse", 2, f"hallucinate {old} -> {new}",
                    lambda lines, o=old, n=new: _replace_word(lines, o, n),
                )
            )
    for anchor in knowledge.drops:
        if anchor in reference:
            rest.append(
                CorruptionOp(
                    "drop", 2, f"omit line containing {anchor!r}",
                    lambda lines, a=anchor: _drop_anchor(lines, a),
                )
            )
    # ChrF-tolerant errors (insertions) first when the paper shows a gap
    ops.extend(band2 + rest if chrf_bias > 5 else rest + band2)

    # --- bands 3-4: descent into the worst case ------------------------------------
    if knowledge.worst_case is not None:
        worst_lines = knowledge.worst_case.split("\n")
        n_morphs = max(len(worst_lines), n_lines, 16)
        morph_rng = rng_for("morph-order", *seed_labels)
        # two passes: the second uses offset alignment so repeated morphs of
        # the same position land a *different* worst-case line, pushing the
        # morph floor further down before structural collapse takes over
        fractions = list(morph_rng.permutation(n_morphs) / max(1, n_morphs - 1))
        fractions += [(f + 0.37) % 1.0 for f in fractions[: n_morphs // 2]]
        fractions += [(f + 0.73) % 1.0 for f in fractions[: n_morphs // 2]]
        for f in fractions:
            ops.append(
                CorruptionOp(
                    "morph", 3, f"morph line at {float(f):.2f}",
                    lambda lines, fr=float(f), wl=worst_lines: _morph_line(lines, fr, wl),
                )
            )
        # band 4: structural collapse of growing fractions of the artifact,
        # ending in the worst case outright.  Applied in fixed order (no
        # epoch shuffling for bands >= 4: see shuffle_within_bands) so the
        # descent stays controlled.
        for f in (i / 24.0 for i in range(1, 24)):
            ops.append(
                CorruptionOp(
                    "collapse", 4, f"collapse tail fraction {f:.2f}",
                    lambda lines, fr=f, wl=worst_lines: _collapse_tail(lines, fr, wl),
                )
            )
        ops.append(
            CorruptionOp(
                "restructure", 5, "emit worst-case artifact",
                lambda _lines, wl=worst_lines: list(wl),
            )
        )

        # band 6: deep decay.  Worst-case artifacts still share simulation
        # boilerplate with the reference (both descend from the same base
        # producer), which floors BLEU around 40-55 for code artifacts.
        # Aggressive identifier drift plus line deletions push the floor
        # toward zero so very low paper scores are reachable.
        for old, new in _DECAY_RENAMES.items():
            ops.append(
                CorruptionOp(
                    "decay-rename", 6, f"decay rename {old} -> {new}",
                    lambda lines, o=old, n=new: _replace_word(lines, o, n),
                )
            )
        decay_rng = rng_for("decay-order", *seed_labels)
        deletions = list(decay_rng.permutation(24) / 23.0)
        deletions += list(decay_rng.permutation(24) / 23.0)
        for f in deletions:
            ops.append(
                CorruptionOp(
                    "decay-delete", 6, f"delete line at {float(f):.2f}",
                    lambda lines, fr=float(f): _delete_line_at(lines, fr),
                )
            )

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
