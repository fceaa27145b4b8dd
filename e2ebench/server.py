"""Lifecycle of one ``python -m repro.serve`` process for a remote workload.

:class:`ServerProcess` boots the store server on loopback TCP with an
ephemeral port, waits for its ready file, and on exit — also when the
pass inside the ``with`` block raised — sends SIGTERM and waits for the
process to end (SIGKILL after a grace period).  The server's output goes
to a log file the caller keeps with the results.  CPU time and peak RSS
are read from ``/proc`` so the benchmark can charge the server's share
of a pass to the end-to-end ``cpu_s`` and ``peak_rss_mb``.

``repro.testing.servers.ServerProcess`` is not reused: it discards the
server's output and SIGKILLs on exit, which skips the shard-index
snapshot a graceful stop writes into a store the benchmark copies.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
SHARDS = 2


class ServerProcess:
    """One store server over ``root``; use as a context manager."""

    def __init__(self, root: pathlib.Path, log_path: pathlib.Path, env: dict[str, str],
                 cwd: pathlib.Path) -> None:
        self.root = root
        self.log_path = log_path
        self.env = env
        self.cwd = cwd
        self.ready_path = root.with_name(root.name + ".ready.json")
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.start_s = 0.0  # spawn until the ready file names the bound port

    def __enter__(self) -> "ServerProcess":
        self.ready_path.unlink(missing_ok=True)
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "--root", str(self.root),
                 "--shards", str(SHARDS), "--tcp", "127.0.0.1:0",
                 "--ready-file", str(self.ready_path)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.cwd,
            )
        try:
            endpoints = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started
        host, port = endpoints["tcp"]
        self.url = f"tcp://{host}:{port}"
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _wait_ready(self) -> dict:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"store server exited with {self.process.returncode} before "
                    f"it was ready; log: {self.log_path}"
                )
            try:
                return json.loads(self.ready_path.read_text())
            except (OSError, ValueError):  # not written yet, or half written
                time.sleep(0.005)
        raise RuntimeError(f"store server not ready after {READY_TIMEOUT_S}s; "
                           f"log: {self.log_path}")

    def _proc(self, name: str) -> str:
        return pathlib.Path(f"/proc/{self.process.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and SIGKILL only if it hangs."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.process = None
        self.ready_path.unlink(missing_ok=True)
