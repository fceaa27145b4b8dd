"""Shared test fixtures."""

from __future__ import annotations

import pytest


@pytest.fixture()
def server(tmp_path):
    """A two-shard store server on its own thread (``test_serve.ServerThread``)."""
    from test_serve import ServerThread

    srv = ServerThread(tmp_path / "served")
    yield srv
    srv.stop()
