"""End-to-end integration: eval pipeline, table shapes, hallucination audit.

These tests run small slices of the full reproduction (1-2 epochs, one or
two cells) and assert the paper's qualitative claims emerge from the
measured pipeline.
"""

from __future__ import annotations

from repro.core.experiments import (
    run_annotation,
    run_configuration,
    run_fewshot,
    run_translation,
)
from repro.data import TABLE1, TABLE2


class TestTableShapes:
    def test_config_system_ordering(self):
        grid = run_configuration(epochs=2)
        by_row = grid.overall_by_row()
        assert by_row["adios2"].bleu.mean > by_row["henson"].bleu.mean
        assert by_row["adios2"].bleu.mean > by_row["wilkins"].bleu.mean

    def test_config_cells_near_paper(self):
        grid = run_configuration(epochs=2)
        for (system, model), paper in TABLE1.items():
            measured = grid.cell(system, model).bleu.mean
            assert abs(measured - paper.bleu) < 10.0, (system, model)

    def test_annotation_llama_collapse(self):
        grid = run_annotation(models=["llama-3.3-70b"], systems=["pycompss"], epochs=2)
        assert grid.cell("pycompss", "llama-3.3-70b").bleu.mean < 20.0

    def test_annotation_cells_near_paper(self):
        grid = run_annotation(epochs=2)
        for (system, model), paper in TABLE2.items():
            measured = grid.cell(system, model).bleu.mean
            assert abs(measured - paper.bleu) < 10.0, (system, model)

    def test_translation_direction_asymmetry(self):
        grid = run_translation(epochs=2, directions=[
            ("henson", "adios2"), ("adios2", "henson"),
        ])
        by_row = grid.overall_by_row()
        assert (
            by_row[("henson", "adios2")].bleu.mean
            > by_row[("adios2", "henson")].bleu.mean
        )

    def test_fewshot_uplift_everywhere(self):
        comparison = run_fewshot(epochs=2)
        for model in comparison.models:
            assert comparison.gain(model) > 30.0


class TestHallucinationAudit:
    def test_zero_shot_configs_hallucinate_more_than_fewshot(self):
        from repro.core.experiments.configuration import configuration_task
        from repro.core.task import evaluate
        from repro.workflows import get_system

        system = get_system("wilkins")

        def hallucination_count(fewshot: bool) -> int:
            task = configuration_task("wilkins", fewshot=fewshot)
            result = evaluate(task, "sim/o3", epochs=2)
            total = 0
            for score in result.samples[0].scores:
                report = system.validate_config(score.answer)
                total += len(report.hallucinations())
            return total

        assert hallucination_count(False) > hallucination_count(True)

