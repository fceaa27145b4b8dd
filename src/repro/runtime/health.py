"""Circuit breakers: per-target health tracking.

A :class:`HealthTracker` is one target's (a store replica's, a model
provider's) circuit breaker.  It watches a rolling window of recent
call outcomes and moves through the classic three states:

* **closed** — healthy; every call is allowed.  Outcomes feed the
  rolling window, and when the windowed error rate crosses
  ``failure_threshold`` (with at least ``min_samples`` observations)
  the breaker trips open.
* **open** — failing; calls are refused without being attempted
  (callers see :class:`~repro.errors.BreakerOpenError` or route around
  the target).  After ``open_for_s`` of cooldown the next
  :meth:`allow` transitions to half-open.
* **half-open** — probing; up to ``half_open_probes`` calls are let
  through.  A success closes the breaker (the target *rejoined*); a
  failure re-opens it for another cooldown.

Timing comes from an injectable ``clock`` so tests drive transitions
deterministically.  A breaker's state and its trip/rejoin totals are
read through :meth:`HealthTracker.describe`; the fleet's through
:meth:`BreakerRegistry.snapshot`.

:class:`BreakerRegistry` is the fleet: a lazily populated name →
tracker map with shared defaults, handed to
:class:`~repro.serve.replicated.ReplicatedStoreClient` (one tracker per
replica) and to :class:`~repro.runtime.faults.FaultPolicy` (one tracker
per model).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from repro.errors import BreakerOpenError, HarnessError

class HealthTracker:
    """One target's circuit breaker over a rolling outcome window.

    Thread-safe; all methods may be called from arbitrary worker
    threads.  ``clock`` defaults to ``time.monotonic`` and is the only
    time source, so tests inject a fake clock and step through
    open → half-open → closed without sleeping.
    """

    def __init__(
        self,
        target: str,
        *,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_samples: int = 3,
        open_for_s: float = 5.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window < 1:
            raise HarnessError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise HarnessError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if min_samples < 1:
            raise HarnessError(f"min_samples must be >= 1, got {min_samples}")
        if open_for_s < 0:
            raise HarnessError(f"open_for_s must be >= 0, got {open_for_s}")
        if half_open_probes < 1:
            raise HarnessError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.target = target
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.open_for_s = open_for_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._mu = threading.Lock()
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._probes_left = 0
        self.opened_total = 0  # times the breaker tripped open
        self.rejoined_total = 0  # times a half-open probe closed it

    # -- state inspection ----------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, with the time-based open → half-open edge applied."""
        with self._mu:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.open_for_s
        ):
            self._state = "half-open"
            self._probes_left = self.half_open_probes
        return self._state

    @property
    def is_open(self) -> bool:
        """True while calls are being refused (open, cooldown not elapsed)."""
        return self.state == "open"

    def error_rate(self) -> float:
        with self._mu:
            if not self._outcomes:
                return 0.0
            return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def describe(self) -> dict[str, Any]:
        with self._mu:
            state = self._state_locked()
            outcomes = list(self._outcomes)
        failures = sum(1 for ok in outcomes if not ok)
        return {
            "target": self.target,
            "state": state,
            "window": len(outcomes),
            "error_rate": failures / len(outcomes) if outcomes else 0.0,
            "opened_total": self.opened_total,
            "rejoined_total": self.rejoined_total,
        }

    # -- the breaker protocol ------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  Half-open grants probe slots."""
        with self._mu:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probes_left > 0:
                self._probes_left -= 1
                return True
            return False

    def check(self) -> None:
        """:meth:`allow` as an exception: raise when the call is refused."""
        if not self.allow():
            raise BreakerOpenError(
                f"breaker for {self.target!r} is {self.state}; call refused"
            )

    def record_success(self) -> None:
        with self._mu:
            state = self._state_locked()
            if state == "half-open":
                # the target rejoined: forget the bad history entirely
                self._outcomes.clear()
                self.rejoined_total += 1
                self._state = "closed"
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._mu:
            state = self._state_locked()
            if state == "half-open":
                # the probe failed: back to cooldown
                self._open_locked()
                return
            self._outcomes.append(False)
            failures = sum(1 for ok in self._outcomes if not ok)
            if (
                len(self._outcomes) >= self.min_samples
                and failures / len(self._outcomes) >= self.failure_threshold
            ):
                self._open_locked()

    def force_open(self) -> None:
        """Trip the breaker regardless of the window (tests, operators)."""
        with self._mu:
            if self._state != "open":
                self._open_locked()
            else:
                self._opened_at = self._clock()

    def reset(self) -> None:
        """Back to a pristine closed breaker."""
        with self._mu:
            self._outcomes.clear()
            self._probes_left = 0
            self._state = "closed"

    # -- internals -----------------------------------------------------------

    def _open_locked(self) -> None:
        self._opened_at = self._clock()
        self._probes_left = 0
        self.opened_total += 1
        self._state = "open"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HealthTracker({self.target!r}, state={self.state!r})"


class BreakerRegistry:
    """A fleet of breakers sharing construction defaults.

    ``get(name)`` lazily creates (and thereafter returns) the named
    tracker, so call sites never coordinate creation.  Thread-safe.
    """

    def __init__(self, *, clock: Callable[[], float] = time.monotonic,
                 **defaults: Any) -> None:
        self._defaults = defaults
        self._clock = clock
        self._mu = threading.Lock()
        self._trackers: dict[str, HealthTracker] = {}

    def get(self, name: str) -> HealthTracker:
        with self._mu:
            tracker = self._trackers.get(name)
            if tracker is None:
                tracker = self._trackers[name] = HealthTracker(
                    name, clock=self._clock, **self._defaults
                )
            return tracker

    def states(self) -> dict[str, str]:
        with self._mu:
            trackers = list(self._trackers.values())
        return {tracker.target: tracker.state for tracker in trackers}

    def snapshot(self) -> list[dict[str, Any]]:
        with self._mu:
            trackers = list(self._trackers.values())
        return [t.describe() for t in sorted(trackers, key=lambda t: t.target)]

    def __len__(self) -> int:
        with self._mu:
            return len(self._trackers)


def _counts_against_breaker(exc: BaseException) -> bool:
    """Only transient-shaped failures should trip a breaker.

    Deterministic failures (an unknown model name, a generation bug)
    would fail against a perfectly healthy endpoint; opening the
    breaker for them just blocks healthy traffic.  Mirrors
    :meth:`~repro.runtime.faults.RetryPolicy.is_retryable` plus plain
    ``OSError`` (socket-level faults), minus ``BreakerOpenError``
    itself (a refused call is not an observed failure).
    """
    from repro.runtime.faults import RetryPolicy

    if isinstance(exc, BreakerOpenError):
        return False
    return RetryPolicy().is_retryable(exc) or isinstance(exc, OSError)
