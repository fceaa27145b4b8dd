"""Shared test fixtures."""

from __future__ import annotations

import pytest


@pytest.fixture()
def server(tmp_path):
    """A two-shard in-process store server (``test_serve.LoopbackServer``)."""
    from test_serve import LoopbackServer

    srv = LoopbackServer(tmp_path / "served")
    yield srv
    srv.stop()
