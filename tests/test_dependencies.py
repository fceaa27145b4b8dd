"""The library needs numpy and the standard library, nothing else.

``setup.py`` declares only numpy, so a module the package imports
without declaring it breaks a clean install.  ``networkx`` is installed
on many hosts as some other tool's dependency, which once hid such an
import; these tests block it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_MODULES = (
    "repro.core.experiments",
    "repro.reporting",
    "repro.runtime",
    "repro.workflows",
)


def test_entry_modules_import_with_networkx_blocked():
    code = (
        "import sys; sys.modules['networkx'] = None; "
        f"import {', '.join(ENTRY_MODULES)}"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_no_source_file_imports_networkx():
    pattern = re.compile(r"^\s*(?:import|from)\s+networkx\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
