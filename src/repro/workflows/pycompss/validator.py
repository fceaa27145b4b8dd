"""Validator for annotated PyCOMPSs task codes (Python).

Checks the decorations and synchronization discipline the paper's
evaluation keys on: a correct producer/consumer annotation must decorate
with ``@task`` using file directions and must synchronize file exchange
with ``compss_wait_on_file`` (the call LLaMA omits) or ``compss_wait_on``
for object results.

Only decorators that claim to be PyCOMPSs are audited: those under
``pycompss.``, those imported from pycompss, those whose name mentions
``compss`` or ``task``, and near-misses of a real PyCOMPSs name.  Plain
Python decorators (``@staticmethod``, ``@functools.lru_cache``) are not
PyCOMPSs hallucinations.
"""

from __future__ import annotations

import re

from repro.workflows.base import Diagnostic, Severity, ValidationReport
from repro.workflows.pycompss.surface import PYCOMPSS_API
from repro.workflows.validators import check_api_usage

_IMPORT_RE = re.compile(r"^\s*from\s+pycompss(?:\.\w+)*\s+import\s+(.+)$")
_DECORATOR_RE = re.compile(r"^\s*@([\w.]+)")


def validate_task_code(text: str) -> ValidationReport:
    report = ValidationReport(system="PyCOMPSs", artifact_kind="task-code")

    # compss_* identifier audit (nonexistent + required synchronization)
    report.extend(
        check_api_usage(
            text,
            PYCOMPSS_API,
            r"compss_\w+",
            required=["compss_wait_on_file"],
        )
    )

    # a ``@compss_*`` decorator is already an identifier hit: report it once
    reported = {(d.symbol, d.line) for d in report.diagnostics}
    saw_task = False
    imported: set[str] = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _IMPORT_RE.match(line)
        if m:
            names = [n.strip().split(" as ")[0] for n in m.group(1).split(",")]
            imported.update(names)
            for name in names:
                if name and not PYCOMPSS_API.known(name):
                    report.diagnostics.append(
                        Diagnostic(
                            severity=Severity.ERROR,
                            code="nonexistent-api",
                            message=f"{name!r} is not importable from pycompss",
                            line=lineno,
                            symbol=name,
                            suggestion=PYCOMPSS_API.suggest(name),
                        )
                    )
        d = _DECORATOR_RE.match(line)
        if d:
            path = d.group(1)
            deco = path.split(".")[-1]
            claims_pycompss = (
                path.startswith("pycompss.")
                or deco in imported
                or "compss" in deco
                or "task" in deco
                or PYCOMPSS_API.suggest(deco) is not None
            )
            if deco == "task":
                saw_task = True
            elif (
                claims_pycompss
                and not PYCOMPSS_API.known(deco)
                and (deco, lineno) not in reported
            ):
                report.diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="nonexistent-api",
                        message=f"@{deco} is not a PyCOMPSs decorator",
                        line=lineno,
                        symbol=deco,
                        suggestion=PYCOMPSS_API.suggest(deco),
                    )
                )

    if not saw_task:
        report.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-api",
                message="no @task decorator found",
                symbol="task",
            )
        )
    if "FILE_OUT" not in text and "FILE_IN" not in text:
        report.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-api",
                message="no file parameter directions (FILE_IN/FILE_OUT) declared",
                symbol="FILE_OUT",
            )
        )
    return report
