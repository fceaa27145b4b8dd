"""Server-side chaos: kill/restart, slow-replica and overload harnesses.

The in-process harness injects faults *inside* one process (providers
and store I/O).  The resilience layer needs faults on the other
side of the wire, so this module adds three deterministic server
harnesses:

* :class:`InProcessServer` — a real :class:`~repro.serve.server.StoreServer`
  listening on a loopback TCP port, served by its own threads.
  ``stop()``/``restart()`` model a server crash and recovery with *the
  same root directory*, exactly like a supervisor restarting a dead
  process, so every suite and bench can boot replicas in one line.
* :class:`ChaosStoreServer` — a ``StoreServer`` whose ``handle`` adds a
  fixed per-op delay (the *slow replica* of hedged-read tests) and can
  be armed with a :class:`~repro.testing.faults.FaultPlan` to refuse a
  deterministic subset of requests as overload.
* :class:`ServerProcess` — a genuinely separate
  ``python -m repro.serve`` OS process (booted via ``--ready-file``
  polling), for tests that must SIGKILL a replica mid-sweep: no amount
  of in-process mocking proves what ``kill -9`` proves.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Sequence

from repro.errors import HarnessError, ServerOverloadedError
from repro.testing.faults import FaultPlan

from repro.serve.server import StoreServer


class InProcessServer:
    """One real ``StoreServer`` on a loopback port, in this process.

    ``stop()`` closes the server: the listener stops, every open
    connection is cut (a client blocked on a response sees EOF, as from
    a dead process) and the shard stores close.  ``restart()`` boots a
    fresh server over the same root and port.
    """

    def __init__(
        self,
        root: "str | pathlib.Path",
        *,
        shards: int = 2,
        port: int = 0,
        server: StoreServer | None = None,
        **server_options: Any,
    ) -> None:
        self.root = pathlib.Path(root)
        self.shards = shards
        self._options = server_options
        self.server = (
            server
            if server is not None
            else StoreServer(self.root, shards=shards, **server_options)
        )
        try:
            self.host, self.port = self.server.start_tcp("127.0.0.1", port)
        except BaseException:
            self.server.close()
            raise

    # -- addresses -----------------------------------------------------------

    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def address(self) -> tuple[str, Any]:
        return ("tcp", (self.host, self.port))

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Stop listening and close the stores (the crash, client-side)."""
        self.server.close()

    def restart(self) -> "InProcessServer":
        """A fresh server over the same root (same port by default)."""
        self.stop()
        return InProcessServer(
            self.root,
            shards=self.shards,
            port=self.port,
            **self._options,
        )

    def __enter__(self) -> "InProcessServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ChaosStoreServer(StoreServer):
    """A ``StoreServer`` with deterministic latency and overload faults.

    ``op_delay_s`` stalls every handled request by a fixed delay — the
    slow replica hedged reads route around.  ``overload_plan`` (a
    :class:`~repro.testing.faults.FaultPlan`; its ``transient`` strikes
    on key ``op:<n>`` decide refusals) answers the deterministic subset
    of requests with a typed retryable refusal, exactly like the real
    admission gate under pressure.
    """

    def __init__(
        self,
        root: "str | pathlib.Path",
        *,
        op_delay_s: float = 0.0,
        overload_plan: FaultPlan | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(root, **kwargs)
        if op_delay_s < 0:
            raise HarnessError(f"op_delay_s must be >= 0, got {op_delay_s}")
        self.op_delay_s = op_delay_s
        self.overload_plan = overload_plan
        self._chaos_mu = threading.Lock()
        self._chaos_seq = 0
        self.delayed_requests = 0
        self.refused_requests = 0

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        op = str(request.get("op", "?"))
        with self._chaos_mu:
            self._chaos_seq += 1
            seq = self._chaos_seq
        if self.overload_plan is not None and self.overload_plan.strikes(
            "transient", f"{op}:{seq}"
        ):
            with self._chaos_mu:
                self.refused_requests += 1
            return {
                "ok": False,
                "error": f"chaos overload refused {op} #{seq}",
                "error_type": ServerOverloadedError.__name__,
            }
        if self.op_delay_s:
            with self._chaos_mu:
                self.delayed_requests += 1
            time.sleep(self.op_delay_s)
        return super().handle(request)


class ServerProcess:
    """A real ``python -m repro.serve`` subprocess, SIGKILL-able.

    Boots with ``--ready-file`` and polls it, so the constructor
    returns only once the server is listening.  ``kill()`` is
    ``SIGKILL`` — no drain, no goodbye, the genuine article —
    ``terminate()`` is the graceful ``SIGTERM`` drain, and
    ``restart()`` reboots over the same root.
    """

    def __init__(
        self,
        root: "str | pathlib.Path",
        *,
        shards: int = 2,
        port: int = 0,
        extra_args: Sequence[str] = (),
        start_timeout_s: float = 30.0,
    ) -> None:
        self.root = pathlib.Path(root)
        self.shards = shards
        self.extra_args = tuple(extra_args)
        self.start_timeout_s = start_timeout_s
        self.ready_file = self.root / f"ready-{os.getpid()}-{port}.json"
        self.proc: subprocess.Popen | None = None
        self.host: str | None = None
        self.port = port
        self._boot(port)

    def _boot(self, port: int) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        if self.ready_file.exists():
            self.ready_file.unlink()
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--root",
                str(self.root),
                "--shards",
                str(self.shards),
                "--tcp",
                f"127.0.0.1:{port}",
                "--ready-file",
                str(self.ready_file),
                *self.extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            if self.ready_file.exists():
                try:
                    endpoints = json.loads(self.ready_file.read_text())
                except (OSError, ValueError):
                    pass  # mid-write: poll again
                else:
                    self.host, self.port = endpoints["tcp"]
                    return
            if self.proc.poll() is not None:
                raise HarnessError(
                    f"store server exited with {self.proc.returncode} "
                    f"before becoming ready"
                )
            time.sleep(0.01)
        self.proc.kill()
        raise HarnessError(
            f"store server not ready within {self.start_timeout_s}s"
        )

    # -- addresses -----------------------------------------------------------

    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    # -- lifecycle -----------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL — the server gets no chance to flush or drain."""
        if self.alive:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def terminate(self, timeout_s: float = 15.0) -> int:
        """SIGTERM — graceful drain; returns the exit code."""
        if self.alive:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=timeout_s)
        return self.proc.returncode

    def restart(self) -> None:
        """Boot again over the same root, reusing the bound port."""
        self.kill()
        self._boot(self.port)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
        if self.ready_file.exists():
            self.ready_file.unlink()
