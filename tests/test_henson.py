"""Henson: hwl parser and validators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workflows.henson import (
    HENSON_C_API,
    parse_hwl,
    render_hwl,
    validate_config,
    validate_task_code,
)


class TestHwl:
    GOOD = (
        "# comment\n"
        "producer = ./producer grid particles on 3 procs\n"
        "consumer1 = ./consumer1 grid on 1 procs\n"
        "consumer2 = ./consumer2 particles\n"
    )

    def test_parse(self):
        script = parse_hwl(self.GOOD)
        assert [p.name for p in script.puppets] == ["producer", "consumer1", "consumer2"]
        producer = script.puppet("producer")
        assert producer.executable == "./producer"
        assert producer.args == ("grid", "particles")
        assert producer.nprocs == 3
        assert script.puppet("consumer2").nprocs == 1  # default

    def test_total_procs(self):
        assert parse_hwl(self.GOOD).total_procs() == 5

    def test_to_graph(self):
        graph = parse_hwl(self.GOOD).to_graph()
        assert len(graph) == 3
        assert graph.task("producer").nprocs == 3

    def test_render_roundtrip(self):
        script = parse_hwl(self.GOOD)
        again = parse_hwl(render_hwl(script))
        assert [p.name for p in again.puppets] == [p.name for p in script.puppets]
        assert again.puppet("producer").nprocs == 3

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_hwl("this is not an assignment")

    def test_duplicate_puppet(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_hwl("a = ./x\na = ./y")

    def test_empty_script(self):
        with pytest.raises(ConfigError, match="no puppets"):
            parse_hwl("# nothing here\n")

    def test_unknown_puppet_lookup(self):
        with pytest.raises(ConfigError):
            parse_hwl(self.GOOD).puppet("ghost")


class TestValidators:
    def test_good_config(self):
        assert validate_config(TestHwl.GOOD).ok

    def test_yaml_config_rejected_as_wrong_artifact(self):
        report = validate_config("tasks:\n- func: producer")
        assert not report.ok
        assert any(d.code == "structure" for d in report.errors())

    def test_reference_task_code_ok(self):
        from repro.core.assets import annotated_producer

        report = validate_task_code(annotated_producer("henson"))
        assert report.ok, report.render()

    def test_paper_hallucinations_flagged(self):
        code = "while (henson_active()) { henson_put(\"x\", 1); henson_yield(); }"
        report = validate_task_code(code)
        symbols = {d.symbol for d in report.hallucinations()}
        assert "henson_put" in symbols

    def test_suggestion_points_to_real_api(self):
        report = validate_task_code("henson_save_it(\"x\", 1);")
        hall = report.hallucinations()[0]
        assert hall.suggestion in ("henson_save_int", "henson_save_size_t")

    def test_mpi_lifetime_warning(self):
        code = (
            "MPI_Init(&argc, &argv);\n"
            "while (henson_active()) { henson_save_int(\"t\", 1); "
            "henson_save_array(\"a\", a, 4, 4, 4); henson_yield(); }\n"
            "MPI_Finalize();"
        )
        report = validate_task_code(code)
        warning_symbols = {d.symbol for d in report.warnings()}
        assert {"MPI_Init", "MPI_Finalize"} <= warning_symbols


_PAPER_HALLUCINATIONS = (
    "henson_put",
    "henson_declare_variable",
    "henson_data_init",
    "henson_init",
    "henson_rank",
    "henson_size",
    "henson_finalize",
)


def _reference_producer() -> str:
    from repro.core.assets import annotated_producer

    return annotated_producer("henson")


class TestHwlGrammar:
    @pytest.mark.parametrize(
        ("line", "name", "executable", "args", "nprocs"),
        [
            ("sim = ./sim", "sim", "./sim", (), 1),
            ("sim = ./sim on 4 procs", "sim", "./sim", (), 4),
            ("sim-1 = ./sim a b on 2 procs", "sim-1", "./sim", ("a", "b"), 2),
            ("_p = /abs/path/exe x", "_p", "/abs/path/exe", ("x",), 1),
            ("p=./exe  on  2  procs", "p", "./exe", (), 2),
            ("p = ./exe on 2 procs  # trailing comment", "p", "./exe", (), 2),
            ("p = ./exe on procs", "p", "./exe", ("on", "procs"), 1),
        ],
    )
    def test_valid_lines(self, line, name, executable, args, nprocs):
        puppet = parse_hwl(line).puppets[0]
        assert (puppet.name, puppet.executable, puppet.args, puppet.nprocs) == (
            name, executable, args, nprocs,
        )

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("p = ./exe on 0 procs", "nprocs must be positive"),
            ("p =", "line 1: cannot parse"),
            ("= ./exe", "line 1: cannot parse"),
            ("1p = ./exe", "line 1: cannot parse"),
            ("a = ./x\n\nb: ./y", "line 3: cannot parse"),
            ("", "no puppets"),
        ],
    )
    def test_invalid_scripts(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_hwl(text)

    def test_blank_lines_and_comments_ignored(self):
        script = parse_hwl("\n# header\n\n  a = ./a  \n# b = ./b\n")
        assert [p.name for p in script.puppets] == ["a"]

    def test_render_is_canonical(self):
        text = "a = ./a x\nb = ./b on 2 procs"
        assert render_hwl(parse_hwl(text)) == "a = ./a x on 1 procs\nb = ./b on 2 procs"


class TestConfigValidator:
    @pytest.mark.parametrize("system_config", ["reference", "fewshot"])
    def test_shipped_configs_ok(self, system_config):
        from repro.core.assets import fewshot_example_config, reference_config

        text = (reference_config if system_config == "reference"
                else fewshot_example_config)("henson")
        report = validate_config(text)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize(
        "foreign",
        [
            "tasks:\n  producer: ./producer",
            "workflow:\n  name: demo",
            "[producer]\ncommand = ./producer",
            "- func: producer\n  nprocs: 3",
        ],
    )
    def test_foreign_artifact_is_structure_error(self, foreign):
        report = validate_config(foreign)
        assert [d.code for d in report.errors()] == ["structure"]

    def test_parse_error_carries_line(self):
        report = validate_config("a = ./a\nb = ./b\nthis line is wrong")
        (diag,) = report.errors()
        assert diag.code == "parse-error"
        assert diag.line == 3

    def test_duplicate_puppet_is_parse_error(self):
        report = validate_config("a = ./a\na = ./b")
        assert [(d.code, d.line) for d in report.errors()] == [("parse-error", 2)]


class TestTaskCodeValidator:
    @pytest.mark.parametrize("name", HENSON_C_API.names())
    def test_every_real_call_accepted(self, name):
        code = _reference_producer() + f"\n/* extra */ {name}();\n"
        report = validate_task_code(code)
        assert report.ok and not report.hallucinations(), report.render()

    @pytest.mark.parametrize("name", _PAPER_HALLUCINATIONS)
    def test_paper_hallucination_flagged_with_suggestion(self, name):
        code = _reference_producer().replace(
            "henson_yield();", f"henson_yield();\n        {name}();"
        )
        report = validate_task_code(code)
        (diag,) = report.hallucinations()
        assert diag.symbol == name
        assert diag.code == "nonexistent-api"
        assert HENSON_C_API.known(diag.suggestion)
        assert diag.line == code.split("\n").index(f"        {name}();") + 1

    @pytest.mark.parametrize("name", HENSON_C_API.required_names("function"))
    def test_missing_required_call_flagged(self, name):
        code = _reference_producer().replace(f"{name}(", "my_call(")
        report = validate_task_code(code)
        assert [(d.code, d.symbol) for d in report.errors()] == [("missing-api", name)]

    def test_commented_out_hallucination_still_flagged(self):
        code = _reference_producer() + "\n// henson_put(\"grid\", array);\n"
        assert [d.symbol for d in validate_task_code(code).hallucinations()] == [
            "henson_put"
        ]

    def test_plain_producer_misses_every_required_call(self):
        from repro.core.assets import base_producer

        report = validate_task_code(base_producer("c"))
        assert sorted(d.symbol for d in report.missing()) == (
            HENSON_C_API.required_names("function")
        )
