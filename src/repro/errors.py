"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch a single base class at harness boundaries while tests can assert on
precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A workflow configuration file is malformed or semantically invalid."""


class WorkflowError(ReproError):
    """A workflow graph is invalid, or a workflow system is unknown."""


class StoreError(ReproError):
    """A storage operation failed: the base of the run-store errors."""


class PersistError(StoreError):
    """Illegal operation on the durable on-disk run store."""


class RecordCorruptError(PersistError):
    """A persisted record failed checksum or structural validation."""


class ModelError(ReproError):
    """A model provider failed to produce a response."""


class RemoteStoreError(StoreError, ModelError):
    """A networked run-store request failed after the client's retries.

    Deliberately *both* a :class:`StoreError` (it is a persistence
    failure: callers treating the remote store as storage catch it where
    they catch any store problem) and a :class:`ModelError` that is not
    one of the deterministic subclasses — so
    :meth:`repro.runtime.faults.RetryPolicy.is_retryable` classifies a
    transient network fault exactly like a transient provider fault, and
    a :class:`~repro.runtime.faults.FaultPolicy`-armed run retries /
    quarantines it instead of aborting.  The client's own reconnect loop
    uses the same :class:`~repro.runtime.faults.RetryPolicy` machinery
    before this is ever raised.
    """


class ServerOverloadedError(RemoteStoreError):
    """The store server refused a frame: too many in flight, or draining.

    Typed and *retryable*: admission control answers with this instead
    of dropping the connection, so a well-behaved client backs off and
    replays the batch (content addressing makes the replay safe) while
    the server finishes the work it already admitted.
    """


class BreakerOpenError(StoreError, ModelError):
    """A circuit breaker is open: the call was refused without being tried.

    Raised by :class:`~repro.runtime.health.HealthTracker`-guarded call
    sites (remote-store clients, model providers) while the target's
    rolling error rate keeps the breaker open.  Like
    :class:`RemoteStoreError` it is both a :class:`StoreError` and a
    retryable :class:`ModelError`: a
    :class:`~repro.runtime.faults.FaultPolicy`-armed run backs off and
    retries, by which time the breaker may have half-opened and let a
    probe through.
    """


class UnknownModelError(ModelError):
    """The requested model name is not registered."""


class GenerationError(ModelError):
    """The simulated generator could not satisfy the request."""


class CalibrationError(ModelError):
    """Bisection calibration failed to bracket the requested target score."""


class DeadlineExceededError(ModelError):
    """A generation blew its wall-clock deadline.

    Carries the measured ``elapsed_s`` and the ``deadline_s`` that was
    exceeded.  Never retried: the budget the deadline protects is
    already spent.
    """

    def __init__(
        self,
        message: str,
        *,
        elapsed_s: float = 0.0,
        deadline_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s


class HarnessError(ReproError):
    """Misuse of the evaluation harness (task/solver/scorer plumbing)."""


class UnitFailedError(HarnessError):
    """Results of a unit quarantined by the fault policy were accessed.

    Raised at assembly time (``RunResult.eval_result``) when an eval's
    unit set includes failures isolated by
    :class:`~repro.runtime.faults.FaultPolicy`; carries the
    :class:`~repro.runtime.faults.UnitFailure` records so callers can
    decide to resume, skip, or surface them.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class MetricError(ReproError):
    """Invalid input to a similarity metric."""
