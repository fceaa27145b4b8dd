"""Validator for Wilkins YAML configurations.

Classifies exactly the error families the paper's case study (Table 6)
exhibits for zero-shot o3 output:

* ``unknown-field`` — ``inputs``/``outputs`` instead of
  ``inports``/``outports``; ``command``, ``processes``, ``dependencies``,
  ``workflow``, ``datasets`` (all nonexistent in Wilkins);
* ``missing-field`` — required fields (``func``, ``nprocs``...) absent;
* ``parse-error`` — semantically invalid structure (caught by the parser);
* ``structure`` — the artifact is task code rather than a config.
"""

from __future__ import annotations

import re

from repro.errors import ConfigError
from repro.workflows.base import Diagnostic, Severity, ValidationReport
from repro.workflows.validators import find_line
from repro.workflows.wilkins.config import parse_wilkins_yaml
from repro.workflows.wilkins.surface import WILKINS_CONFIG_FIELDS

_CODE_SIGNS = re.compile(r"(#include|int\s+main\s*\(|def\s+\w+\s*\(|import\s+\w+)")


_KEY_LINE_RE = re.compile(r"^\s*-?\s*([A-Za-z_][\w-]*)\s*:")


def _scan_keys_textually(text: str) -> set[str]:
    """Line-level ``key:`` extraction for YAML too broken to parse."""
    keys: set[str] = set()
    for line in text.split("\n"):
        m = _KEY_LINE_RE.match(line)
        if m:
            keys.add(m.group(1))
    return keys


def _walk_keys(node: object) -> set[str]:
    keys: set[str] = set()
    if isinstance(node, dict):
        for key, value in node.items():
            keys.add(str(key))
            keys |= _walk_keys(value)
    elif isinstance(node, list):
        for item in node:
            keys |= _walk_keys(item)
    return keys


def validate_config(text: str) -> ValidationReport:
    report = ValidationReport(system="Wilkins", artifact_kind="config")

    if _CODE_SIGNS.search(text):
        report.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="structure",
                message="artifact looks like task code, not a Wilkins YAML config",
            )
        )
        return report

    import yaml  # PyYAML: the ``wilkins`` extra

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        report.diagnostics.append(
            Diagnostic(severity=Severity.ERROR, code="parse-error",
                       message=f"malformed YAML: {exc}")
        )
        # fall back to a line-level key scan so hallucinated fields are
        # still reported on chimeric, unparseable artifacts
        for key in sorted(_scan_keys_textually(text)):
            if not WILKINS_CONFIG_FIELDS.known(key):
                report.diagnostics.append(
                    Diagnostic(
                        severity=Severity.ERROR,
                        code="unknown-field",
                        message=f"{key!r} is not a Wilkins config field",
                        line=find_line(text, key),
                        symbol=key,
                        suggestion=WILKINS_CONFIG_FIELDS.suggest(key),
                    )
                )
        return report

    # field vocabulary audit on the raw document (works even when the
    # overall structure is wrong, which is the interesting failure mode)
    for key in sorted(_walk_keys(doc)):
        if not WILKINS_CONFIG_FIELDS.known(key):
            report.diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="unknown-field",
                    message=f"{key!r} is not a Wilkins config field",
                    line=find_line(text, key),
                    symbol=key,
                    suggestion=WILKINS_CONFIG_FIELDS.suggest(key),
                )
            )

    try:
        parse_wilkins_yaml(text)
    except ConfigError as exc:
        message = str(exc)
        # unknown-field errors are already reported individually above
        if "unknown" not in message:
            code = "missing-field" if "missing" in message else "parse-error"
            report.diagnostics.append(
                Diagnostic(severity=Severity.ERROR, code=code, message=message)
            )
    return report
