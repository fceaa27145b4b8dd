"""The offline model provider.

Generation pipeline (the same code path a real provider would sit behind):

1. concatenate the user messages and recover the experiment cell from the
   prompt text alone (:func:`repro.llm.intent.analyze_prompt`);
2. fetch the ground-truth artifact for that cell and build the
   cell-specific corruption-operator sequence from the model's knowledge
   profile;
3. look the cell's corruption depth ``k*`` up in the pre-calibrated
   table (:mod:`repro.llm.calibrated`), trusting a row only when its
   fingerprint of the cell's reference, operators and target matches;
   otherwise — a user's own profile or target, or a stale row —
   calibrate ``k*`` against the profile's target score by scanning the
   cell's quality curve (either way cached per cell — this is the
   model's "competence");
4. per trial: derive an RNG from (model, cell, seed), sample jitter and a
   within-band operator shuffle using real temperature/top_p decoding
   math (deterministic when temperature is 0 or the model's jitter scale
   is 0, as with Claude), and apply ``k* + jitter`` operators;
5. wrap the artifact in model-styled chatter + a markdown fence, account
   tokens, and return a :class:`~repro.llm.types.ModelOutput`.

Few-shot prompts raise the effective competence target (step 3 uses the
few-shot calibration table) and suppress the worst-case/hallucination
operators — providing an example config demonstrably prevents inventing
fields, which is the paper's §4.5 finding.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import threading
from concurrent.futures import Future
from typing import NamedTuple, Sequence

from repro.core.assets import annotated_producer, reference_config
from repro.errors import GenerationError
from repro.llm import tokenizer
from repro.llm.calibration import (
    CalibrationResult,
    QualityCurve,
    calibrate,
    local_recalibrate,
)
from repro.llm.corruption import (
    CorruptionOp,
    apply_ops,
    build_ops,
    shuffle_within_bands,
)
from repro.llm.intent import Intent, analyze_prompt
from repro.llm.knowledge import ModelProfile, SystemKnowledge
from repro.llm.sampling import sample_jitter
from repro.llm.types import (
    ChatMessage,
    GenerateConfig,
    ModelOutput,
    ModelUsage,
)
from repro.metrics.kernels import CompiledReference, compile_reference
from repro.utils.rng import rng_for

logger = logging.getLogger(__name__)


@functools.cache
def _op_digest(op: CorruptionOp) -> bytes | None:
    """sha256 of an operator's full identity; ``None`` when it has none.

    An operator is its kind, band, and the module-level function its
    ``apply`` binds with its arguments.  ``describe`` is not hashed: it
    is lossy (a comment's text is absent, fractions are rounded).  An
    ``apply`` that is not a ``functools.partial`` over a module-level
    function (a lambda, a closure) carries state no repr shows, so it
    has no identity and its cell is always calibrated.
    """
    apply = op.apply
    if not isinstance(apply, functools.partial):
        return None
    func = apply.func
    qualname = getattr(func, "__qualname__", "<unknown>")
    if "<" in qualname:
        return None
    identity = (op.kind, op.band, func.__module__, qualname, apply.args,
                sorted(apply.keywords.items()))
    return hashlib.sha256(repr(identity).encode("utf-8")).digest()


def cell_fingerprint(reference: str, ops: Sequence[CorruptionOp], target: float) -> str | None:
    """Hex sha256 of everything a cell's calibrated depth depends on.

    The reference text, ``repr(target)`` and each operator's identity in
    order (:func:`_op_digest`); ``None`` when an operator has no
    identity.
    """
    digest = hashlib.sha256()
    digest.update(reference.encode("utf-8", "surrogatepass"))
    digest.update(b"\0" + repr(target).encode("ascii") + b"\0")
    for op in ops:
        op_digest = _op_digest(op)
        if op_digest is None:
            return None
        digest.update(op_digest)
    return digest.hexdigest()


class CalibratedCell(NamedTuple):
    """Everything one experiment cell computes exactly once.

    The compiled reference travels with the cell so later generations
    never re-tokenize the reference (every trial's recalibration scores
    against ``compiled``), and ``text`` is the artifact at the calibrated
    depth, which the deterministic path returns without re-applying
    operators.
    """

    ops: list[CorruptionOp]
    calib: CalibrationResult
    text: str
    compiled: CompiledReference


class SimulatedModel:
    """A behavioural simulator behind the ModelAPI protocol."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = f"sim/{profile.name}"
        self._lock = threading.Lock()
        # key -> Future so concurrent callers of the same cell compute once
        self._cell_cache: dict[tuple, Future[CalibratedCell]] = {}
        # every trial of a cell sends the same prompt: count its tokens
        # once per distinct text
        self._prompt_tokens = functools.lru_cache(maxsize=1024)(tokenizer.count_tokens)

    # -- ModelAPI ------------------------------------------------------------

    def generate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:
        prompt = "\n\n".join(m.content for m in messages if m.role != "assistant")
        if not prompt.strip():
            raise GenerationError(f"{self.name}: empty prompt")
        intent = analyze_prompt(prompt)
        payload = self._generate_payload(intent, config)
        completion = self._decorate(payload, intent, config)
        usage = ModelUsage(
            input_tokens=self._prompt_tokens(prompt),
            output_tokens=tokenizer.count_tokens(completion),
        )
        return ModelOutput(
            model=self.name,
            completion=completion,
            usage=usage,
            stop_reason="stop",
            params_applied=not self.profile.ignore_sampling_params,
            metadata={"intent": intent},
        )

    # -- internals ---------------------------------------------------------------

    def reference_for(self, intent: Intent) -> str:
        """Ground-truth artifact for an experiment cell."""
        if intent.experiment == "configuration":
            return reference_config(intent.system)
        if intent.experiment == "annotation":
            return annotated_producer(intent.system)
        if intent.experiment == "translation":
            return annotated_producer(intent.target)
        raise GenerationError(f"unknown experiment {intent.experiment!r}")

    @staticmethod
    def _cell_key(intent: Intent) -> tuple:
        return (
            intent.experiment,
            intent.cell_system,
            intent.variant,
            intent.fewshot,
            intent.doccontext,
        )

    def _cell(self, intent: Intent) -> CalibratedCell:
        key = self._cell_key(intent)
        # publish a Future under the lock before computing, so concurrent
        # callers of the same cell wait for one calibration instead of
        # duplicating it (calibration is the expensive step)
        with self._lock:
            future = self._cell_cache.get(key)
            if future is not None:
                owned = False
            else:
                future = self._cell_cache[key] = Future()
                owned = True
        if not owned:
            return future.result()
        try:
            cell = self._calibrate_cell(intent, key)
        except BaseException as exc:
            with self._lock:
                self._cell_cache.pop(key, None)
            future.set_exception(exc)
            raise
        future.set_result(cell)
        return cell

    def _cell_ops(self, intent: Intent, key: tuple) -> list[CorruptionOp]:
        """The cell's operator sequence (its operators are shared values)."""
        knowledge = self.profile.knowledge_for(intent.experiment, intent.cell_system)
        if intent.fewshot:
            # an in-context example demonstrably suppresses schema invention:
            # strip hallucination/confusion/worst-case operators
            knowledge = SystemKnowledge(renames=knowledge.renames)
        elif intent.doccontext:
            # documentation snippets (RAG-lite) name the real fields, which
            # suppresses the worst case but not structural sloppiness
            knowledge = SystemKnowledge(
                renames=knowledge.renames,
                inserts=knowledge.inserts,
                drops=knowledge.drops,
            )
        return build_ops(
            self.reference_for(intent),
            knowledge,
            chrf_bias=self.profile.bias_for(intent.experiment, intent.cell_system),
            seed_labels=(self.name, key),
        )

    def calibration_inputs(
        self, intent: Intent
    ) -> tuple[str, list[CorruptionOp], float, str | None]:
        """(reference, ops, target, fingerprint) of a cell's calibration."""
        reference = self.reference_for(intent)
        ops = self._cell_ops(intent, self._cell_key(intent))
        target = self.profile.target_for(
            intent.experiment, intent.cell_system, intent.variant, intent.fewshot
        )
        if intent.doccontext and not intent.fewshot:
            # halfway between zero-shot and few-shot competence
            few = self.profile.target_for(
                intent.experiment, intent.cell_system, intent.variant, True
            )
            target = (target + few) / 2.0
        return reference, ops, target, cell_fingerprint(reference, ops, target)

    def _calibrate_cell(self, intent: Intent, key: tuple) -> CalibratedCell:
        # the table loads with the first cell, not with the package
        from repro.llm.calibrated import CALIBRATED

        reference, ops, target, fingerprint = self.calibration_inputs(intent)
        compiled = compile_reference(reference)
        row = CALIBRATED.get((self.name, key))
        if row is not None:
            if fingerprint is not None and row[0] == fingerprint:
                # the table's depth is this cell's scan result: no curve
                calib = CalibrationResult(row[1], row[2], target)
                return CalibratedCell(ops, calib, apply_ops(reference, ops, calib.k),
                                      compiled)
            logger.warning(
                "%s cell %r: calibration table row does not match the cell "
                "(stale table or changed profile). Recalibrating.",
                self.name, key,
            )
        curve = QualityCurve(reference, ops, compiled=compiled)
        result = calibrate(reference, ops, target, curve=curve)
        # the cell is cached for the process lifetime but only the
        # calibrated depth's text is ever read again: keep just that
        return CalibratedCell(ops, result, curve.text(result.k), compiled)

    def _generate_payload(self, intent: Intent, config: GenerateConfig) -> str:
        cell = self._cell(intent)
        reference = cell.compiled.text
        temperature, top_p = self._effective_sampling(config)
        rng = rng_for(self.name, intent.experiment, intent.cell_system,
                      intent.variant, intent.fewshot, intent.doccontext,
                      config.seed)
        if self.profile.epoch_jitter <= 0 or temperature == 0:
            # deterministic decoding: identical artifact every trial — the
            # calibration pass already built this prefix, so reuse it
            return cell.text
        # trial-to-trial variation: perturb the competence target by a few
        # points (sampled with real temperature/top_p decoding math), then
        # re-pick the depth on this trial's shuffled operator order
        epoch_ops = shuffle_within_bands(cell.ops, rng)
        jitter_points = sample_jitter(
            rng,
            scale=self.profile.epoch_jitter,
            temperature=temperature,
            top_p=top_p,
        )
        target = min(100.0, max(0.0, cell.calib.target_bleu + jitter_points))
        epoch_curve = QualityCurve(reference, epoch_ops, compiled=cell.compiled)
        k = local_recalibrate(
            reference, epoch_ops, target, center=cell.calib.k, curve=epoch_curve
        )
        return epoch_curve.text(k)

    def _effective_sampling(self, config: GenerateConfig) -> tuple[float, float]:
        if self.profile.ignore_sampling_params:
            # o3-style endpoints decode with their own fixed settings
            return 1.0, 1.0
        return config.temperature, config.top_p

    def _decorate(self, payload: str, intent: Intent, config: GenerateConfig) -> str:
        rng = rng_for(self.name, "chatter", intent.experiment, intent.cell_system,
                      intent.variant, config.seed)
        prefix = self.profile.chatter_prefixes[
            int(rng.integers(0, len(self.profile.chatter_prefixes)))
        ]
        fence = self.profile.fence_language(intent.experiment, intent.cell_system)
        parts = [prefix, f"```{fence}\n{payload}\n```"]
        # the fabricated-citation suffix shows up exactly where the paper
        # saw it: zero-shot Wilkins configuration requests
        if (
            self.profile.chatter_suffixes
            and intent.experiment == "configuration"
            and intent.system == "wilkins"
            and not intent.fewshot
        ):
            suffix = next((s for s in self.profile.chatter_suffixes if s), "")
            if suffix:
                parts.append(suffix)
        return "\n\n".join(p for p in parts if p)

    # -- introspection (used by benches and tests) ---------------------------------

    def calibration_for(self, intent: Intent) -> CalibrationResult:
        """Expose the calibrated depth/score for a cell (diagnostics)."""
        return self._cell(intent).calib

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedModel({self.name!r})"
