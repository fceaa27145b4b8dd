"""The example scripts run, and the reproduce_tables CLI fails loudly, not with a traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "examples" / "reproduce_tables.py"


def run_script(*args: str, script: Path = SCRIPT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "example", ["quickstart.py", "llm_repair_loop.py", "translation_study.py"]
)
def test_example_runs(example):
    proc = run_script(script=SCRIPT.parent / example)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--executor", "warp-drive"], "unknown executor 'warp-drive'"),
        (["--cache", "punchcards"], "unknown cache 'punchcards'"),
        (["--cache", "disk"], "--cache disk requires --store"),
        (["--store", str(SCRIPT)], "is not a directory"),
        (["--executor", "mpi"], "unknown executor 'mpi'"),
        (["--executor", "threads", "--workers", "0"], "max_concurrency must be positive"),
        (["--resume-failed", "run-1"], "--resume-failed requires --store"),
    ],
)
def test_unknown_knobs_exit_cleanly(args, expected):
    proc = run_script(*args)
    assert proc.returncode == 2
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--executor", "nope"], "unknown executor 'nope'"),
        (["--max-attempts", "0"], "max_attempts"),
        (["--unit-deadline", "0"], "unit_deadline_s must be positive"),
        (["--retry-budget", "-1"], "retry_budget must be >= 0"),
    ],
)
def test_bad_knob_leaves_no_store_behind(tmp_path, args, expected):
    """Knobs are checked before --store is opened: no directory is created."""
    store = tmp_path / "new-store"
    proc = run_script("--store", str(store), *args)
    assert proc.returncode == 2
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not store.exists()


@pytest.mark.parametrize("removed", ["async", "batched"])
def test_removed_executors_are_rejected(tmp_path, removed):
    """Only serial and threads remain; the error names both choices."""
    store = tmp_path / "new-store"
    proc = run_script("--store", str(store), "--executor", removed)
    assert proc.returncode == 2
    assert (
        f"unknown executor {removed!r}; choose from serial, threads" in proc.stderr
    )
    assert "Traceback" not in proc.stderr
    assert not store.exists()


def test_removed_scheduler_flag_is_rejected(tmp_path):
    """Units dispatch in plan order; argparse refuses --scheduler."""
    store = tmp_path / "new-store"
    proc = run_script("--store", str(store), "--scheduler", "adaptive")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not store.exists()


def test_valid_factories_build_without_running():
    """The factory layer accepts every advertised knob value."""
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import reproduce_tables as cli
    finally:
        sys.path.pop(0)
    for name in cli.EXECUTORS:
        assert cli.make_executor(name, workers=2) is not None
    assert cli.make_cache("memory", store=None) is not None
    with pytest.raises(cli.UsageError):
        cli.make_executor("bogus", workers=2)
