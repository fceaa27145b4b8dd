"""ADIOS2: XML config parser and validators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workflows.adios2 import (
    ADIOS2_C_API,
    parse_xml_config,
    validate_config,
    validate_task_code,
)
from repro.workflows.adios2.xmlconfig import (
    KNOWN_ENGINE_TYPES,
    AdiosConfig,
    IOConfig,
    render_xml_config,
)


class TestXmlConfig:
    GOOD = """<?xml version="1.0"?>
<adios-config>
    <io name="SimulationOutput">
        <engine type="SST">
            <parameter key="QueueLimit" value="1"/>
        </engine>
        <variable name="grid"/>
    </io>
</adios-config>"""

    def test_parse_good(self):
        config = parse_xml_config(self.GOOD)
        io = config.io("SimulationOutput")
        assert io.engine_type == "SST"
        assert io.parameters == {"QueueLimit": "1"}
        assert io.variables == ["grid"]

    def test_malformed_xml(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_xml_config("<adios-config><io></adios-config>")

    def test_wrong_root(self):
        with pytest.raises(ConfigError, match="root element"):
            parse_xml_config("<config/>")

    def test_unnamed_io(self):
        with pytest.raises(ConfigError, match="missing required 'name'"):
            parse_xml_config("<adios-config><io/></adios-config>")

    def test_unknown_engine_type(self):
        bad = self.GOOD.replace('type="SST"', 'type="Teleport"')
        with pytest.raises(ConfigError, match="unknown engine type"):
            parse_xml_config(bad)

    def test_duplicate_io(self):
        dup = self.GOOD.replace(
            "</adios-config>",
            '<io name="SimulationOutput"/></adios-config>',
        )
        with pytest.raises(ConfigError, match="duplicate"):
            parse_xml_config(dup)

    def test_render_roundtrip(self):
        config = AdiosConfig(
            ios={"X": IOConfig(name="X", engine_type="BP4",
                               parameters={"k": "v"}, variables=["a"])}
        )
        reparsed = parse_xml_config(render_xml_config(config))
        assert reparsed.io("X").engine_type == "BP4"
        assert reparsed.io("X").parameters == {"k": "v"}


class TestValidators:
    def test_good_config_ok(self):
        assert validate_config(TestXmlConfig.GOOD).ok

    def test_unknown_element_flagged(self):
        bad = TestXmlConfig.GOOD.replace("<variable", "<dataset").replace(
            "</io>", "</io>"
        )
        report = validate_config(bad)
        assert any(d.symbol == "dataset" for d in report.hallucinations())

    def test_reference_task_code_ok(self):
        from repro.core.assets import annotated_producer

        report = validate_task_code(annotated_producer("adios2"))
        assert report.ok, report.render()

    def test_hallucinated_call_flagged(self):
        from repro.core.assets import annotated_producer

        bad = annotated_producer("adios2").replace("adios2_put", "adios2_write")
        report = validate_task_code(bad)
        symbols = {d.symbol for d in report.hallucinations()}
        assert "adios2_write" in symbols

    def test_missing_required_call_flagged(self):
        from repro.core.assets import annotated_producer

        bad = annotated_producer("adios2").replace("adios2_finalize(adios);", "")
        report = validate_task_code(bad)
        assert any(
            d.code == "missing-api" and d.symbol == "adios2_finalize"
            for d in report.diagnostics
        )

    def test_unbalanced_steps_warn(self):
        from repro.core.assets import annotated_producer

        bad = annotated_producer("adios2").replace("adios2_end_step(engine);", "")
        report = validate_task_code(bad)
        assert any(d.code == "structure" for d in report.warnings()) or any(
            d.code == "missing-api" for d in report.diagnostics
        )


def _io(body: str, engine: str = "") -> str:
    return f'<adios-config><io name="X">{engine}{body}</io></adios-config>'


class TestXmlStructure:
    @pytest.mark.parametrize("engine_type", KNOWN_ENGINE_TYPES)
    def test_every_known_engine_type_parses(self, engine_type):
        config = parse_xml_config(_io("", f'<engine type="{engine_type}"/>'))
        assert config.io("X").engine_type == engine_type

    def test_engine_without_type(self):
        assert parse_xml_config(_io("", "<engine/>")).io("X").engine_type == ""

    def test_transports_collected(self):
        config = parse_xml_config(
            _io('<transport type="File"/><transport type="WAN"/>')
        )
        assert config.io("X").transports == ["File", "WAN"]

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("<adios-config><engine/></adios-config>", "unexpected element <engine>"),
            (_io("<dataset/>"), "unexpected element <dataset>"),
            (_io("", '<engine type="SST"><variable name="a"/></engine>'),
             "unexpected <variable> under <engine>"),
            (_io("", '<engine><parameter value="1"/></engine>'), "needs 'key' and 'value'"),
            (_io("", '<engine><parameter key="k"/></engine>'), "needs 'key' and 'value'"),
            (_io("<variable/>"), "<variable> missing 'name'"),
        ],
    )
    def test_structural_errors(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_xml_config(text)

    def test_missing_io_lookup(self):
        with pytest.raises(ConfigError, match="no <io name='Y'>"):
            parse_xml_config(_io("")).io("Y")

    @pytest.mark.parametrize("kind", ["reference", "fewshot"])
    def test_shipped_configs_roundtrip(self, kind):
        from repro.core.assets import fewshot_example_config, reference_config

        text = (reference_config if kind == "reference" else fewshot_example_config)(
            "adios2"
        )
        config = parse_xml_config(text)
        again = parse_xml_config(render_xml_config(config))
        assert again == config
        report = validate_config(text)
        assert report.ok and not report.diagnostics, report.render()


class TestConfigVocabulary:
    def test_parse_error_and_vocabulary_both_reported(self):
        report = validate_config("<adios-config><io><stream/></io></adios-config>")
        codes = [d.code for d in report.errors()]
        assert codes[0] == "parse-error"
        assert [d.symbol for d in report.hallucinations()] == ["stream"]

    def test_unknown_attribute_is_warning_only(self):
        report = validate_config(_io('<variable name="a" shape="10"/>'))
        assert report.ok
        (warning,) = report.warnings()
        assert (warning.code, warning.symbol) == ("unknown-field", "shape")

    def test_prolog_not_flagged(self):
        report = validate_config('<?xml version="1.0" encoding="UTF-8"?>\n' + _io(""))
        assert report.ok and not report.diagnostics, report.render()

    def test_unknown_element_located_and_suggested(self):
        report = validate_config(
            '<adios-config>\n<io name="X">\n<engines type="SST"/>\n</io>\n</adios-config>'
        )
        diag = report.hallucinations()[0]
        assert (diag.symbol, diag.line, diag.suggestion) == ("engines", 3, "engine")


# plausible names models invent, none of them in the C bindings
_INVENTED_CALLS = (
    "adios2_write",
    "adios2_read",
    "adios2_create_io",
    "adios2_define_var",
    "adios2_open_file",
    "adios2_initialize",
    "adios2_step_begin",
)


def _reference_producer() -> str:
    from repro.core.assets import annotated_producer

    return annotated_producer("adios2")


class TestTaskCodeSurface:
    @pytest.mark.parametrize("name", ADIOS2_C_API.names("function"))
    def test_every_real_function_accepted(self, name):
        code = _reference_producer() + f"\n/* extra */ {name};\n"
        report = validate_task_code(code)
        assert not report.hallucinations(), report.render()

    @pytest.mark.parametrize("name", ADIOS2_C_API.names("keyword"))
    def test_every_real_constant_accepted(self, name):
        report = validate_task_code(_reference_producer() + f"\nint k = {name};\n")
        assert report.ok and not report.hallucinations(), report.render()

    @pytest.mark.parametrize("name", _INVENTED_CALLS)
    def test_invented_call_flagged_with_suggestion(self, name):
        code = _reference_producer().replace(
            "adios2_close(engine);", f"{name}(engine);\n    adios2_close(engine);"
        )
        (diag,) = validate_task_code(code).hallucinations()
        assert diag.symbol == name
        assert ADIOS2_C_API.known(diag.suggestion)
        assert diag.line == next(
            i for i, ln in enumerate(code.split("\n"), start=1) if f"{name}(" in ln
        )

    @pytest.mark.parametrize("name", ADIOS2_C_API.required_names("function"))
    def test_missing_required_call_flagged(self, name):
        code = _reference_producer().replace(f"{name}(", "my_call(")
        report = validate_task_code(code)
        assert ("missing-api", name) in [(d.code, d.symbol) for d in report.errors()]
        assert not report.hallucinations()

    def test_extra_begin_step_warns(self):
        code = _reference_producer().replace(
            "adios2_close(engine);",
            "adios2_begin_step(engine, adios2_step_mode_append, -1.0f, &status);\n"
            "    adios2_close(engine);",
        )
        report = validate_task_code(code)
        assert report.ok
        (warning,) = report.warnings()
        assert "2 begin_step vs 1 end_step" in warning.message
