"""Task-code translation study: LLM translations, scored and audited.

Asks every simulated model to translate the annotated ADIOS2 producer to
Henson (the paper's hardest direction), scores the result with
BLEU/ChrF, and audits hallucinated API calls against the real Henson
API — reproducing the Table 4 analysis for all four models.

Usage:  python examples/translation_study.py
"""

from __future__ import annotations

from repro.core.assets import annotated_producer
from repro.data import MODELS, TABLE3
from repro.llm import GenerateConfig, get_model
from repro.metrics import bleu, chrf
from repro.utils.text import strip_markdown_chatter
from repro.workflows.henson import validate_task_code


def main() -> None:
    print("=== LLM translations ADIOS2 -> Henson ===")
    source = annotated_producer("adios2")
    reference = annotated_producer("henson")
    prompt = (
        "Task codes are provided below for the ADIOS2 workflow system for a "
        "2-node workflow. Your task is to translate these codes to use the "
        f"Henson system.\n\n{source}"
    )
    for model_name in MODELS:
        model = get_model(f"sim/{model_name}")
        output = model.generate(prompt, GenerateConfig(seed=0))
        artifact = strip_markdown_chatter(output.completion)
        b = bleu(artifact, reference)
        c = chrf(artifact, reference)
        report = validate_task_code(artifact)
        flagged = sorted(
            {d.symbol for d in report.hallucinations()
             if d.symbol and d.symbol.startswith("henson")}
        )
        paper = TABLE3[(("adios2", "henson"), model_name)]
        print(f"{model_name:18s} BLEU {b:5.1f} (paper {paper.bleu:5.1f})  "
              f"ChrF {c:5.1f}  hallucinated: {flagged or 'none'}")


if __name__ == "__main__":
    main()
