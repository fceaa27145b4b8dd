"""The offline model provider.

Generation pipeline (the same code path a real provider would sit behind):

1. concatenate the user messages and recover the experiment cell from the
   prompt text alone (:func:`repro.llm.intent.analyze_prompt`);
2. fetch the ground-truth artifact for that cell and build the
   cell-specific corruption-operator sequence from the model's knowledge
   profile;
3. calibrate the corruption depth ``k*`` against the profile's target
   score (cached per cell — this is the model's "competence");
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

    def _calibrate_cell(self, intent: Intent, key: tuple) -> CalibratedCell:
        reference = self.reference_for(intent)
        compiled = compile_reference(reference)
        ops = self._cell_ops(intent, key)
        target = self.profile.target_for(
            intent.experiment, intent.cell_system, intent.variant, intent.fewshot
        )
        if intent.doccontext and not intent.fewshot:
            # halfway between zero-shot and few-shot competence
            few = self.profile.target_for(
                intent.experiment, intent.cell_system, intent.variant, True
            )
            target = (target + few) / 2.0
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
