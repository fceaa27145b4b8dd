"""Cross-process locking for the run store.

One ``LOCK`` file per store, locked with ``fcntl.flock``: appends,
compaction and index snapshots take the exclusive lock; segment scans
and record reads take the shared lock, so a reader never observes a
half-written append from a *cooperating* process (crashes are covered
separately by per-record checksums).

The lock is also thread-aware: within one process a
:class:`threading.Lock` serializes lock-holding sections, so one
:class:`~repro.persist.store.RunStore` instance may be shared between
threads.  Holding is *not* re-entrant — store code acquires the lock at
its public entry points only.

On platforms without :mod:`fcntl` (not a supported deployment target,
but the import is guarded) the file lock degrades to the in-process
thread lock with a one-time warning: single-process use stays correct,
cross-process exclusion is not available.
"""

from __future__ import annotations

import contextlib
import pathlib
import threading
import warnings
from typing import Iterator

try:  # pragma: no cover - fcntl exists on every supported platform
    import fcntl
except ImportError:  # pragma: no cover - windows fallback
    fcntl = None  # type: ignore[assignment]


class FileLock:
    """Shared/exclusive advisory lock on one lockfile."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._thread_lock = threading.Lock()
        self._warned = False

    @contextlib.contextmanager
    def _held(self, flag: int | None) -> Iterator[None]:
        with self._thread_lock:
            if fcntl is None:
                if not self._warned:  # pragma: no cover - windows fallback
                    self._warned = True
                    warnings.warn(
                        "fcntl unavailable: store locking is process-local only",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                yield
                return
            with self.path.open("ab") as handle:
                fcntl.flock(handle.fileno(), flag)
                try:
                    yield
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def shared(self) -> contextlib.AbstractContextManager[None]:
        """Hold the lock for reading (concurrent with other readers)."""
        return self._held(fcntl.LOCK_SH if fcntl is not None else None)

    def exclusive(self) -> contextlib.AbstractContextManager[None]:
        """Hold the lock for writing (excludes readers and writers)."""
        return self._held(fcntl.LOCK_EX if fcntl is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FileLock({str(self.path)!r})"
