"""Parsl: task-code validator."""

from __future__ import annotations

import pytest

from repro.workflows.parsl_sim import validate_task_code


class TestValidator:
    def test_reference_ok(self):
        from repro.core.assets import annotated_producer

        report = validate_task_code(annotated_producer("parsl"))
        assert report.ok, report.render()

    def test_hallucinated_import_flagged(self):
        code = "from parsl import parsl_app\n@parsl_app\ndef f(): pass\nf().result()"
        report = validate_task_code(code)
        assert any(d.symbol == "parsl_app" for d in report.hallucinations())

    def test_missing_decorator_flagged(self):
        report = validate_task_code("def f(): pass\nf()")
        assert any(d.code == "missing-api" for d in report.errors())

    def test_redundant_executor_warned(self):
        from repro.core.assets import annotated_producer

        code = annotated_producer("parsl").replace(
            "parsl.load()",
            "parsl.load(Config(executors=[HighThroughputExecutor()]))",
        )
        report = validate_task_code(code)
        assert any(d.code == "redundant-api" for d in report.warnings())


_APP = "@python_app\ndef f(outputs=()):\n    return 1\n\nf().result()\n"


class TestSurface:
    @pytest.mark.parametrize(
        "line",
        [
            "from parsl import python_app, bash_app, join_app",
            "from parsl.app.app import python_app",
            "from parsl import python_app as papp",
            "from parsl.config import Config",
            "from parsl.executors import HighThroughputExecutor, ThreadPoolExecutor",
            "from parsl.data_provider.files import File",
            "from parsl.dataflow.futures import AppFuture",
            "from parsl import load, clear, dfk",
        ],
    )
    def test_real_imports_accepted(self, line):
        report = validate_task_code(line + "\n" + _APP)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize(
        ("name", "suggestion"),
        [
            ("parsl_app", "bash_app"),
            ("python_task", "python_app"),
            ("Future", "AppFuture"),
            ("Workflow", None),
        ],
    )
    def test_invented_imports_flagged(self, name, suggestion):
        report = validate_task_code(f"from parsl import {name}\n" + _APP)
        (diag,) = report.hallucinations()
        assert (diag.symbol, diag.suggestion, diag.line) == (name, suggestion, 1)

    @pytest.mark.parametrize(
        "decorator",
        ["@python_app", "@bash_app", "@join_app", "@parsl.python_app",
         "@python_app(cache=True)"],
    )
    def test_app_decorators_accepted(self, decorator):
        code = _APP.replace("@python_app", decorator)
        report = validate_task_code(code)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize("decorator", ["parsl_app", "app", "task", "mpi_app", "parsl_task"])
    def test_invented_decorators_flagged(self, decorator):
        code = _APP.replace("@python_app", f"@{decorator}")
        report = validate_task_code(code)
        assert [d.symbol for d in report.hallucinations()] == [decorator]
        # with no real app decorator left, the annotation is also incomplete
        assert [d.symbol for d in report.missing()] == ["python_app"]

    def test_decorators_under_parsl_audited(self):
        report = validate_task_code("@parsl.remote\n" + _APP)
        assert [d.symbol for d in report.hallucinations()] == ["remote"]

    def test_non_app_decorators_ignored(self):
        report = validate_task_code("@functools.lru_cache\n" + _APP)
        assert report.ok and not report.diagnostics, report.render()

    def test_missing_result_flagged(self):
        report = validate_task_code(_APP.replace(".result()", ""))
        assert [(d.code, d.symbol) for d in report.errors()] == [("missing-api", "result")]


class TestExecutors:
    @pytest.mark.parametrize("name", ["HighThroughputExecutor", "ThreadPoolExecutor"])
    def test_real_executor_is_redundant_warning(self, name):
        report = validate_task_code(_APP + f"cfg = Config(executors=[{name}()])\n")
        assert report.ok
        (warning,) = report.warnings()
        assert (warning.code, warning.symbol, warning.line) == ("redundant-api", name, 6)

    @pytest.mark.parametrize("name", ["GPUExecutor", "ClusterExecutor"])
    def test_invented_executor_flagged(self, name):
        report = validate_task_code(_APP + f"cfg = Config(executors=[{name}()])\n")
        assert [(d.code, d.symbol) for d in report.errors()] == [("nonexistent-api", name)]
