"""Wilkins: YAML config parser and validator."""

from __future__ import annotations

import pytest

from repro.core.assets import reference_config
from repro.errors import ConfigError
from repro.workflows.wilkins import (
    WILKINS_CONFIG_FIELDS,
    DsetConfig,
    parse_wilkins_yaml,
    render_wilkins_yaml,
    validate_config,
)


class TestConfigParsing:
    def test_paper_reference_parses(self):
        config = parse_wilkins_yaml(reference_config("wilkins"))
        assert [t.func for t in config.tasks] == ["producer", "consumer1", "consumer2"]
        producer = config.task("producer")
        assert producer.nprocs == 3
        assert producer.outports[0].filename == "outfile.h5"
        assert [d.name for d in producer.outports[0].dsets] == [
            "/group1/grid", "/group1/particles",
        ]
        assert producer.outports[0].dsets[0].transport == "memory"

    def test_total_procs(self):
        assert parse_wilkins_yaml(reference_config("wilkins")).total_procs() == 5

    def test_unknown_task_field(self):
        bad = reference_config("wilkins").replace("nprocs:", "processes:")
        with pytest.raises(ConfigError, match="unknown task field"):
            parse_wilkins_yaml(bad)

    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_wilkins_yaml("workflow: {}\ntasks:\n- func: a\n  nprocs: 1")

    def test_missing_func(self):
        with pytest.raises(ConfigError, match="missing required field 'func'"):
            parse_wilkins_yaml("tasks:\n- nprocs: 1")

    def test_duplicate_func(self):
        with pytest.raises(ConfigError, match="duplicate task func"):
            parse_wilkins_yaml("tasks:\n- func: a\n- func: a")

    def test_port_requires_dsets(self):
        with pytest.raises(ConfigError, match="dsets"):
            parse_wilkins_yaml(
                "tasks:\n- func: a\n  outports:\n  - filename: f.h5"
            )

    def test_dset_flags_validated(self):
        with pytest.raises(ConfigError, match="file/memory"):
            parse_wilkins_yaml(
                "tasks:\n- func: a\n  outports:\n  - filename: f.h5\n"
                "    dsets:\n    - name: /d\n      file: 2"
            )

    def test_both_flags_zero_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_wilkins_yaml(
                "tasks:\n- func: a\n  outports:\n  - filename: f.h5\n"
                "    dsets:\n    - name: /d\n      file: 0\n      memory: 0"
            )

    def test_malformed_yaml(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_wilkins_yaml("tasks: [unclosed")

    def test_render_roundtrip(self):
        config = parse_wilkins_yaml(reference_config("wilkins"))
        again = parse_wilkins_yaml(render_wilkins_yaml(config))
        assert [t.func for t in again.tasks] == [t.func for t in config.tasks]
        assert again.task("producer").nprocs == 3

    def test_render_matches_paper_layout(self):
        config = parse_wilkins_yaml(reference_config("wilkins"))
        assert render_wilkins_yaml(config) == reference_config("wilkins")


class TestValidator:
    def test_reference_ok(self):
        assert validate_config(reference_config("wilkins")).ok

    def test_o3_zero_shot_schema_flagged(self):
        from repro.data.case_studies import TABLE6_FLAGGED_FIELDS, TABLE6_ZEROSHOT

        report = validate_config(TABLE6_ZEROSHOT)
        flagged = {d.symbol for d in report.hallucinations()}
        assert set(TABLE6_FLAGGED_FIELDS) <= flagged

    def test_suggestions_point_to_real_fields(self):
        report = validate_config("tasks:\n- func: a\n  nprocs: 1\n  inputs:\n  - x")
        by_symbol = {d.symbol: d for d in report.hallucinations()}
        assert by_symbol["inputs"].suggestion == "inports"

    def test_task_code_rejected_as_structure_error(self):
        report = validate_config("#include <stdio.h>\nint main() { return 0; }")
        assert any(d.code == "structure" for d in report.errors())

    def test_unparseable_yaml_still_reports_fields(self):
        broken = "workflow:\n  tasks:\n    producer:\n      command: [unclosed"
        report = validate_config(broken)
        assert any(d.code == "parse-error" for d in report.errors())
        flagged = {d.symbol for d in report.hallucinations()}
        assert "command" in flagged or "workflow" in flagged


def _one_task(task_body: str) -> str:
    return "tasks:\n- func: a\n  nprocs: 1\n" + task_body


_PORT = "  outports:\n  - filename: f.h5\n    dsets:\n    - name: /d\n"


class TestSchema:
    def test_surface_matches_parser_fields(self):
        from repro.workflows.wilkins.config import DSET_FIELDS, PORT_FIELDS, TASK_FIELDS

        assert set(WILKINS_CONFIG_FIELDS.names()) == (
            {"tasks"} | TASK_FIELDS | PORT_FIELDS | DSET_FIELDS
        )

    def test_every_field_in_one_config_is_accepted(self):
        text = (
            "tasks:\n"
            "- func: a\n  nprocs: 2\n  taskCount: 1\n  args: [x, y]\n"
            "  outports:\n  - filename: f.h5\n    io_freq: 1\n    dsets:\n"
            "    - name: /d\n      file: 1\n      memory: 1\n"
            "      zerocopy: 0\n      ownership: 0\n"
            "- func: b\n  inports:\n  - filename: f.h5\n    dsets:\n    - name: /d\n"
        )
        report = validate_config(text)
        assert report.ok and not report.diagnostics, report.render()
        config = parse_wilkins_yaml(text)
        assert config.task("a").args == ("x", "y")
        assert config.task("b").nprocs == 1  # default

    @pytest.mark.parametrize(
        ("file", "memory", "transport"),
        [(0, 1, "memory"), (1, 0, "file"), (1, 1, "memory")],
    )
    def test_transport_flags(self, file, memory, transport):
        assert DsetConfig("/d", file=file, memory=memory).transport == transport

    def test_glob_dataset_names_parse(self):
        config = parse_wilkins_yaml(
            _one_task("  inports:\n  - filename: f.h5\n    dsets:\n    - name: /group1/*\n")
        )
        assert config.task("a").inports[0].dsets[0].name == "/group1/*"

    def test_fewshot_example_parses(self):
        from repro.core.assets import fewshot_example_config

        config = parse_wilkins_yaml(fewshot_example_config("wilkins"))
        assert [t.func for t in config.tasks] == ["producer", "consumer"]
        assert validate_config(fewshot_example_config("wilkins")).ok

    def test_unknown_task_lookup(self):
        with pytest.raises(ConfigError, match="no task"):
            parse_wilkins_yaml(reference_config("wilkins")).task("ghost")


# (document, parser error pattern, validator diagnostic code)
_STRUCTURAL_ERRORS = [
    ("- func: a", "top level must be a mapping", "parse-error"),
    ("tasks: []", "non-empty list", "parse-error"),
    ("tasks:\n- producer", "task entry must be a mapping", "parse-error"),
    ("tasks:\n- func: a\n  nprocs: 0", "nprocs must be positive", "parse-error"),
    (_one_task("  outports:\n  - f.h5\n"), "port entry must be a mapping", "parse-error"),
    (_one_task("  outports:\n  - dsets:\n    - name: /d\n"),
     "port missing required field 'filename'", "missing-field"),
    (_one_task("  outports:\n  - filename: f.h5\n    dsets:\n    - /d\n"),
     "dset entry must be a mapping", "parse-error"),
    (_one_task("  outports:\n  - filename: f.h5\n    dsets:\n    - file: 1\n"),
     "dset missing required field 'name'", "missing-field"),
    (_one_task(_PORT + "      memory: 2\n"), "must be 0 or 1", "parse-error"),
    ("tasks:\n- func: a\n- func: a", "duplicate task func", "parse-error"),
]


class TestStructuralErrors:
    @pytest.mark.parametrize(("text", "match", "code"), _STRUCTURAL_ERRORS)
    def test_parser_rejects(self, text, match, code):
        with pytest.raises(ConfigError, match=match):
            parse_wilkins_yaml(text)

    @pytest.mark.parametrize(("text", "match", "code"), _STRUCTURAL_ERRORS)
    def test_validator_classifies(self, text, match, code):
        report = validate_config(text)
        assert [d.code for d in report.errors()] == [code]
        assert match in report.errors()[0].message


# Table 6 zero-shot hallucinations: field name -> nearest real field, if any
_PAPER_FIELDS = {
    "inputs": "inports",
    "outputs": "outports",
    "processes": "nprocs",
    "datasets": "dsets",
    "command": None,
    "dependencies": None,
    "workflow": None,
}


class TestHallucinatedFields:
    @pytest.mark.parametrize(("field", "suggestion"), sorted(_PAPER_FIELDS.items()))
    def test_task_level_field_flagged(self, field, suggestion):
        text = _one_task(f"  {field}: x\n")
        report = validate_config(text)
        (diag,) = report.hallucinations()
        assert (diag.symbol, diag.suggestion, diag.line) == (field, suggestion, 4)
        # the parser's own unknown-field error is not reported twice
        assert len(report.errors()) == 1

    @pytest.mark.parametrize("field", ["path", "size", "transport"])
    def test_dset_level_field_flagged(self, field):
        report = validate_config(_one_task(_PORT + f"      {field}: 1\n"))
        assert [d.symbol for d in report.hallucinations()] == [field]

    @pytest.mark.parametrize(
        "code",
        [
            "#include <hdf5.h>",
            "int main(int argc, char** argv) {}",
            "def producer():\n    pass",
            "import h5py",
        ],
    )
    def test_code_signs_are_structure_errors(self, code):
        report = validate_config(code)
        assert [d.code for d in report.errors()] == ["structure"]
