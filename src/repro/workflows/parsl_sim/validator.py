"""Validator for annotated Parsl task codes (Python).

Audits two things the paper's analysis highlights:

1. hallucinated names imported from parsl (``from parsl import X`` where X
   is not part of the surface) and unknown Parsl-looking decorators —
   ``@*_app``, ``@task``/``@app``, ``@parsl*`` and anything under
   ``parsl.``;
2. *redundant executor configuration* — the paper observes models
   gratuitously configuring executors when the prompt never asked for
   them, which tanks BLEU while ChrF stays tolerant.  Those are reported
   as warnings with code ``redundant-api``.
"""

from __future__ import annotations

import re

from repro.workflows.base import Diagnostic, Severity, ValidationReport
from repro.workflows.parsl_sim.surface import PARSL_API
from repro.workflows.validators import find_line

_IMPORT_RE = re.compile(r"^\s*from\s+parsl(?:\.\w+)*\s+import\s+(.+)$")
_DECORATOR_RE = re.compile(r"^\s*@([\w.]+)")
_EXECUTOR_RE = re.compile(r"\b(\w*Executor)\s*\(")


def validate_task_code(text: str) -> ValidationReport:
    report = ValidationReport(system="Parsl", artifact_kind="task-code")
    saw_app_decorator = False
    saw_result = ".result(" in text

    for lineno, line in enumerate(text.split("\n"), start=1):
        m = _IMPORT_RE.match(line)
        if m:
            names = [n.strip().split(" as ")[0] for n in m.group(1).split(",")]
            for name in names:
                if name and not PARSL_API.known(name):
                    report.diagnostics.append(
                        Diagnostic(
                            severity=Severity.ERROR,
                            code="nonexistent-api",
                            message=f"{name!r} is not importable from parsl",
                            line=lineno,
                            symbol=name,
                            suggestion=PARSL_API.suggest(name),
                        )
                    )
        d = _DECORATOR_RE.match(line)
        if d:
            path = d.group(1)
            deco = path.split(".")[-1]
            if (
                deco.endswith("_app")
                or deco in ("task", "app")
                or deco.startswith("parsl")
                or path.startswith("parsl.")
            ):
                if PARSL_API.known(deco):
                    saw_app_decorator = True
                else:
                    report.diagnostics.append(
                        Diagnostic(
                            severity=Severity.ERROR,
                            code="nonexistent-api",
                            message=f"@{deco} is not a Parsl app decorator",
                            line=lineno,
                            symbol=deco,
                            suggestion=PARSL_API.suggest(deco),
                        )
                    )

    if not saw_app_decorator:
        report.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-api",
                message="no @python_app/@bash_app decorator found",
                symbol="python_app",
            )
        )
    if not saw_result:
        report.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="missing-api",
                message="no .result() synchronization on any app future",
                symbol="result",
            )
        )

    # redundant executor configuration (legal but unrequested)
    for m in _EXECUTOR_RE.finditer(text):
        name = m.group(1)
        lineno = find_line(text, m.group(0))
        if PARSL_API.known(name):
            report.diagnostics.append(
                Diagnostic(
                    severity=Severity.WARNING,
                    code="redundant-api",
                    message=(
                        f"{name} configured explicitly; prompt did not request "
                        "an executor configuration"
                    ),
                    line=lineno,
                    symbol=name,
                )
            )
        else:
            report.diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="nonexistent-api",
                    message=f"{name} is not a Parsl executor",
                    line=lineno,
                    symbol=name,
                    suggestion=PARSL_API.suggest(name),
                )
            )
    return report
