"""The reproduce_tables example CLI must fail loudly, not traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "examples" / "reproduce_tables.py"


def run_script(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--executor", "warp-drive"], "unknown executor 'warp-drive'"),
        (["--scheduler", "chaotic"], "unknown scheduler 'chaotic'"),
        (["--cache", "punchcards"], "unknown cache 'punchcards'"),
        (["--cache", "disk"], "--cache disk requires --store"),
        (["--store", str(SCRIPT)], "is not a directory"),
        (["--score-workers", "many"], "worker count or 'auto'"),
        (["--score-workers", "-1"], "must be >= 0"),
    ],
)
def test_unknown_knobs_exit_cleanly(args, expected):
    proc = run_script(*args)
    assert proc.returncode == 2
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr


def test_valid_factories_build_without_running():
    """The factory layer accepts every advertised knob value."""
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import reproduce_tables as cli
    finally:
        sys.path.pop(0)
    for name in cli.EXECUTORS:
        assert cli.make_executor(name, workers=2) is not None
    assert cli.make_scheduler("plan") is None
    assert cli.make_scheduler("adaptive") is not None
    assert cli.make_cache("memory", store=None) is not None
    with pytest.raises(cli.UsageError):
        cli.make_executor("bogus", workers=2)
    assert cli.make_scoring("0") is None
    pool = cli.make_scoring("2")
    assert pool is not None and pool.max_workers == 2
    pool.close()
    from repro.runtime import AdaptiveScoringPool

    auto = cli.make_scoring("auto")
    assert isinstance(auto, AdaptiveScoringPool)
    auto.close()
