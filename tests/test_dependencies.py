"""The library needs numpy and the standard library, nothing else.

``setup.py`` declares only numpy, so a module the package imports
without declaring it breaks a clean install.  ``networkx`` is installed
on many hosts as some other tool's dependency, which once hid such an
import; these tests block it.  PyYAML is needed only to parse Wilkins
YAML (the ``wilkins`` extra), so the reproduction runs with it blocked.

Each process loads only the layers it runs: the store server imports
with numpy blocked and without the model and metric stack, and a
storeless cold run loads neither asyncio nor the store client and
server.  Nothing runs an event loop: the executors and the store server
serve on plain threads, and no module under ``src/repro`` imports
asyncio.  These pins run in a fresh interpreter, where ``sys.modules``
shows exactly what an import pulled in.
"""

from __future__ import annotations

import ast
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


LAZY_PACKAGES = ("repro.core", "repro.llm", "repro.runtime", "repro.serve")


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _loaded(imports: str, candidates: tuple[str, ...], block: str = "") -> list[str]:
    """Which of ``candidates`` a fresh interpreter holds after ``imports``."""
    blocked = f"sys.modules[{block!r}] = None; " if block else ""
    out = _run(
        f"import sys; {blocked}{imports}; "
        f"print(' '.join(m for m in {candidates!r} if sys.modules.get(m)))"
    )
    return out.split()


def test_entry_modules_import_with_networkx_blocked():
    _run(
        "import sys; sys.modules['networkx'] = None; "
        f"import {', '.join(ENTRY_MODULES)}"
    )


def test_store_server_imports_without_numpy_or_the_model_stack():
    heavy = (
        "repro.metrics",
        "repro.llm.simulated",
        "repro.core.scorers",
        "repro.runtime.runner",
    )
    loaded = _loaded("import repro.serve.server, repro.serve.cli", heavy, block="numpy")
    assert loaded == []


def test_cold_entry_modules_load_no_event_loop_or_store_layers():
    unused = (
        "asyncio",
        "ssl",
        "repro.persist.store",
        "repro.serve.client",
        "repro.serve.server",
    )
    imports = f"import {', '.join(ENTRY_MODULES)}; from repro.serve import open_store"
    assert _loaded(imports, unused) == []


def test_calibration_table_loads_on_the_first_generation_only():
    """The shipped depth table is imported by the first calibrated cell,
    so importing the package or planning a storeless sweep does not pay
    for it."""
    table = ("repro.llm.calibrated",)
    imports = (
        "import repro.llm, repro.llm.simulated; "
        "import repro.core.experiments, repro.reporting, repro.runtime; "
        "from repro.runtime import Plan, RunConfig; "
        "from repro.core.experiments import configuration_task; "
        "Plan('p').add_eval(configuration_task('adios2'), 'sim/o3', epochs=1)"
    )
    assert _loaded(imports, table) == []
    generate = "; ".join([imports, "from repro.llm import get_model",
                          "get_model('sim/o3').generate('Write the ADIOS2 configuration file.')"])
    assert _loaded(generate, table) == list(table)


def test_thread_executor_sweep_loads_no_event_loop():
    sweep = (
        "from repro.core.experiments import run_configuration; "
        "from repro.runtime import RunConfig, ThreadExecutor; "
        "run_configuration(models=['o3'], systems=['adios2'], epochs=2, "
        "config=RunConfig(executor=ThreadExecutor(4)))"
    )
    assert _loaded(sweep, ("asyncio",)) == []


def test_booted_store_server_loads_no_event_loop_or_ssl():
    serve_one_ping = (
        "import socket, tempfile, repro.serve.server, repro.serve.cli; "
        "from repro.serve.protocol import read_frame, write_frame; "
        "server = repro.serve.server.StoreServer(tempfile.mkdtemp()); "
        "sock = socket.create_connection(server.start_tcp('127.0.0.1', 0)); "
        "write_frame(sock, {'op': 'ping'}); assert read_frame(sock)['ok']; "
        "sock.close(); server.close()"
    )
    assert _loaded(serve_one_ping, ("asyncio", "ssl")) == []


def test_no_module_imports_asyncio():
    pattern = re.compile(r"^\s*(?:import|from)\s+asyncio\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.joinpath("repro").rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


#: modules of the executable workflow runtimes and their simulated MPI /
#: HDF5 substrates, which the evaluation never ran and which are gone
DELETED_RUNTIMES = tuple(
    f"repro.{name}"
    for name in (
        "mpi",
        "store",
        "workflows.dataflow",
        "workflows.henson.api",
        "workflows.henson.coroutines",
        "workflows.wilkins.runtime",
        "workflows.wilkins.graph",
        "workflows.adios2.api",
        "workflows.adios2.engines",
        "workflows.parsl_sim.apps",
        "workflows.parsl_sim.dfk",
        "workflows.parsl_sim.executors",
        "workflows.parsl_sim.config",
        "workflows.pycompss.api",
        "workflows.pycompss.api_functions",
        "workflows.pycompss.runtime",
        "workflows.pycompss.parameter",
    )
)


def test_every_experiment_builds_and_renders_without_yaml_or_runtimes():
    """Every sweep of the reproduction, one model and one trial each,
    runs and renders with PyYAML blocked and loads no runtime module."""
    sweeps = "; ".join(
        [
            "from repro.core.experiments import run_annotation, run_configuration, "
            "run_fewshot, run_prompt_sensitivity, run_translation",
            "from repro.reporting import render_fewshot_table, render_figure1, "
            "render_grid_table",
            "from repro.workflows import all_systems",
            "one = dict(models=['o3'], epochs=1)",
            "render_grid_table(run_configuration(**one), 'T1')",
            "render_grid_table(run_annotation(**one), 'T2')",
            "render_grid_table(run_translation(**one), 'T3')",
            "render_fewshot_table(run_fewshot(**one), 'T5')",
            "[render_figure1(run_prompt_sensitivity(e, **one), e) "
            "for e in ('configuration', 'annotation', 'translation')]",
            "assert len(all_systems()) == 5",
        ]
    )
    unused = ("yaml",) + DELETED_RUNTIMES
    assert _loaded(sweeps, unused, block="yaml") == []


def _type_checking_homes(package: str) -> dict[str, str]:
    """name -> module, from the package's ``if TYPE_CHECKING:`` imports."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    homes = {}
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                homes.update({alias.name: stmt.module for alias in stmt.names})
    return homes


def test_lazy_package_names_are_their_defining_modules_objects():
    homes = {package: _type_checking_homes(package) for package in LAZY_PACKAGES}
    code = "\n".join(
        [
            "import importlib",
            f"homes = {homes!r}",
            "for package, names in homes.items():",
            "    pkg = importlib.import_module(package)",
            "    assert sorted(pkg.__all__) == sorted(names), package",
            "    for name, module in names.items():",
            "        held = getattr(importlib.import_module(module), name)",
            "        assert getattr(pkg, name) is held, (package, name)",
            "import repro.core.samples, repro.core.scorers, repro.runtime.runner, repro.stats",
            "assert repro.core.scorers.Score is repro.core.samples.Score",
            "assert repro.runtime.runner.RunStats is repro.stats.RunStats",
        ]
    )
    _run(code)


def test_no_source_file_imports_networkx():
    pattern = re.compile(r"^\s*(?:import|from)\s+networkx\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
