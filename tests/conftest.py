"""Shared test fixtures: isolated filesystems and clean global runtimes."""

from __future__ import annotations

import pytest

from repro.store import SimFilesystem, reset_default_filesystem


@pytest.fixture()
def fs() -> SimFilesystem:
    """A private in-memory filesystem."""
    return SimFilesystem()


@pytest.fixture()
def clean_default_fs() -> SimFilesystem:
    """Reset and return the process-wide default filesystem."""
    return reset_default_filesystem()


@pytest.fixture()
def server(tmp_path):
    """A two-shard store server on its own thread (``test_serve.ServerThread``)."""
    from test_serve import ServerThread

    srv = ServerThread(tmp_path / "served")
    yield srv
    srv.stop()


@pytest.fixture()
def compss_runtime(fs):
    """A fresh PyCOMPSs runtime bound to a private filesystem."""
    from repro.workflows.pycompss import reset_runtime

    runtime = reset_runtime(fs=fs)
    yield runtime
    runtime.shutdown()


@pytest.fixture()
def parsl_kernel():
    """A loaded Parsl DataFlowKernel, cleared afterwards."""
    from repro.workflows.parsl_sim import Config, ThreadPoolExecutor, clear, load

    kernel = load(Config(executors=[ThreadPoolExecutor(max_threads=4)]))
    yield kernel
    clear()
