"""PyCOMPSs: task-code validator."""

from __future__ import annotations

import pytest

from repro.workflows.pycompss import PYCOMPSS_API, validate_task_code


class TestValidator:
    def test_reference_ok(self):
        from repro.core.assets import annotated_producer

        report = validate_task_code(annotated_producer("pycompss"))
        assert report.ok, report.render()

    def test_missing_wait_on_file_flagged(self):
        from repro.core.assets import annotated_producer

        bad = "\n".join(
            ln for ln in annotated_producer("pycompss").split("\n")
            if "compss_wait_on_file" not in ln
        )
        report = validate_task_code(bad)
        assert any(d.symbol == "compss_wait_on_file" for d in report.missing())

    def test_hallucinated_call_flagged(self):
        code = "@task()\ndef f(): pass\ncompss_wait_file('x')\nFILE_OUT"
        report = validate_task_code(code)
        assert any(d.symbol == "compss_wait_file" for d in report.hallucinations())

    @pytest.mark.parametrize("decorator", ["parallel_task", "compss_task", "parsl_task"])
    def test_unknown_decorator_flagged(self, decorator):
        code = f"@{decorator}\ndef f(): pass"
        report = validate_task_code(code)
        assert any(d.symbol == decorator for d in report.hallucinations())

    def test_compss_decorator_reported_once(self):
        # the identifier audit and the decorator audit both see
        # ``@compss_task``; the hallucination must count once
        code = '@compss_task(f=FILE_OUT)\ndef f(f): pass\ncompss_wait_on_file("x")'
        report = validate_task_code(code)
        hits = [d for d in report.hallucinations() if d.symbol == "compss_task"]
        assert len(hits) == 1, report.render()
        assert hits[0].code == "nonexistent-api"


_TASK = (
    "@task(fname=FILE_OUT)\n"
    "def f(fname):\n"
    "    pass\n\n"
    "f('out.npy')\n"
    "compss_wait_on_file('out.npy')\n"
)


class TestSurface:
    @pytest.mark.parametrize(
        "line",
        [
            "from pycompss.api.task import task",
            "from pycompss.api.parameter import FILE_IN, FILE_OUT, FILE_INOUT",
            "from pycompss.api.parameter import IN, OUT, INOUT, Direction",
            "from pycompss.api.api import compss_wait_on, compss_wait_on_file",
            "from pycompss.api.api import compss_open, compss_barrier, compss_delete_file",
            "from pycompss.api.constraint import constraint",
            "from pycompss.api.binary import binary",
            "from pycompss.api.mpi import mpi",
        ],
    )
    def test_real_imports_accepted(self, line):
        report = validate_task_code(line + "\n" + _TASK)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize(
        ("name", "suggestion"),
        [("compss_sync", "compss_open"), ("FILE", "FILE_IN"), ("workflow", None)],
    )
    def test_invented_imports_flagged(self, name, suggestion):
        report = validate_task_code(f"from pycompss.api.api import {name}\n" + _TASK)
        hall = [(d.symbol, d.suggestion, d.line) for d in report.hallucinations()]
        assert (name, suggestion, 1) in hall

    @pytest.mark.parametrize(
        "decorator",
        ["@constraint(computing_units=2)", "@binary(binary='ls')",
         "@mpi(runner='mpirun', processes=4)"],
    )
    def test_companion_decorators_accepted(self, decorator):
        report = validate_task_code(decorator + "\n" + _TASK)
        assert report.ok and not report.diagnostics, report.render()

    @pytest.mark.parametrize(
        "decorator", ["@staticmethod", "@property", "@functools.lru_cache"]
    )
    def test_plain_python_decorators_ignored(self, decorator):
        report = validate_task_code(decorator + "\n" + _TASK)
        assert report.ok and not report.errors(), report.render()

    def test_decorators_under_pycompss_audited(self):
        report = validate_task_code("@pycompss.api.remote\n" + _TASK)
        assert [d.symbol for d in report.hallucinations()] == ["remote"]

    def test_decorators_imported_from_pycompss_audited(self):
        report = validate_task_code("from pycompss.api.api import workflow\n@workflow\n" + _TASK)
        hall = [(d.symbol, d.line) for d in report.hallucinations()]
        assert ("workflow", 2) in hall

    @pytest.mark.parametrize("name", ["compss_wait", "compss_sync", "compss_barrier_all"])
    def test_invented_compss_calls_flagged(self, name):
        report = validate_task_code(_TASK + f"{name}()\n")
        (diag,) = report.hallucinations()
        assert (diag.symbol, diag.line) == (name, 7)
        assert PYCOMPSS_API.known(diag.suggestion)

    def test_missing_task_decorator_flagged(self):
        report = validate_task_code(_TASK.replace("@task(fname=FILE_OUT)\n", "# FILE_OUT\n"))
        assert [(d.code, d.symbol) for d in report.errors()] == [("missing-api", "task")]

    def test_missing_file_directions_flagged(self):
        report = validate_task_code(_TASK.replace("(fname=FILE_OUT)", "(returns=1)"))
        assert [(d.code, d.symbol) for d in report.errors()] == [("missing-api", "FILE_OUT")]
