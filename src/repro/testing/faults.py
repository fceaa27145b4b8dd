"""Deterministic fault injection: faulty providers and stores.

The chaos suite (``tests/test_chaos.py``) needs faults that are *random
enough* to hit arbitrary units but *deterministic enough* to replay: the
same :class:`FaultPlan` seed must fault the same requests on every run,
in every executor, regardless of dispatch order.  So every injection
decision is a pure function of ``(plan seed, fault kind, request key)``
— no RNG state, no call-order dependence.

Two injection surfaces:

* :class:`FaultyProvider` wraps any registered model provider and
  injects transient failures, permanent failures, latency spikes and
  truncated outputs *in front of* real generation — the payload that
  eventually comes back is always the wrapped provider's own, so healed
  runs stay bit-identical to fault-free ones.
* :class:`FaultyStore` subclasses :class:`~repro.persist.RunStore` and
  makes chosen appends fail — cleanly (`OSError` before any byte lands)
  or torn (half a record hits the segment, then the error) — to prove
  the torn-tail healing documented in :mod:`repro.persist.segments`.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from typing import Iterable, Iterator, Sequence

from repro.errors import HarnessError, ModelError
from repro.llm.api import ModelAPI, get_model, register_model
from repro.llm.types import ChatMessage, GenerateConfig, ModelOutput
from repro.persist.records import encode_record
from repro.persist.segments import list_segments, segment_name
from repro.persist.store import RunStore

FAULT_KINDS = ("transient", "permanent", "latency", "truncate")


class FaultPlan:
    """A seeded, order-independent schedule of injected faults.

    ``roll(kind, key)`` maps to a uniform float in ``[0, 1)`` via SHA-256
    over ``(seed, kind, key)``; a fault of some kind strikes a request
    exactly when its roll lands under that kind's rate.  Because the
    roll depends only on content, the *same requests* fault under serial
    and threaded execution — which is what lets the chaos suite assert
    bit-identical grids across executors under fire.

    ``transient_times`` bounds how often a transient (or truncate) fault
    re-strikes one request: the first N calls for that request fail,
    every later call succeeds.  Set it below the retry policy's attempt
    count to heal within a run, above it to force quarantine and test
    resume.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        transient_rate: float = 0.0,
        permanent_rate: float = 0.0,
        latency_rate: float = 0.0,
        truncate_rate: float = 0.0,
        transient_times: int = 1,
        latency_s: float = 0.005,
    ) -> None:
        for label, rate in (
            ("transient_rate", transient_rate),
            ("permanent_rate", permanent_rate),
            ("latency_rate", latency_rate),
            ("truncate_rate", truncate_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise HarnessError(f"{label} must be in [0, 1], got {rate}")
        if transient_times < 1:
            raise HarnessError(
                f"transient_times must be >= 1, got {transient_times}"
            )
        if latency_s < 0:
            raise HarnessError(f"latency_s must be >= 0, got {latency_s}")
        self.seed = seed
        self.transient_rate = transient_rate
        self.permanent_rate = permanent_rate
        self.latency_rate = latency_rate
        self.truncate_rate = truncate_rate
        self.transient_times = transient_times
        self.latency_s = latency_s

    def roll(self, kind: str, key: str) -> float:
        """Uniform [0, 1) decided purely by (seed, kind, key)."""
        digest = hashlib.sha256(
            f"{self.seed}\x1f{kind}\x1f{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def strikes(self, kind: str, key: str) -> bool:
        """Whether a fault of ``kind`` is scheduled for request ``key``."""
        if kind not in FAULT_KINDS:
            raise HarnessError(
                f"unknown fault kind {kind!r}; kinds: {list(FAULT_KINDS)}"
            )
        rate = getattr(self, f"{kind}_rate")
        return rate > 0.0 and self.roll(kind, key) < rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rates = ", ".join(
            f"{kind}={getattr(self, f'{kind}_rate')}"
            for kind in FAULT_KINDS
            if getattr(self, f"{kind}_rate") > 0
        )
        return f"FaultPlan(seed={self.seed}, {rates or 'no faults'})"


def request_key(messages: Sequence[ChatMessage], config: GenerateConfig) -> str:
    """Content address of one provider call, as the fault plan sees it.

    Mirrors the spirit of :func:`repro.runtime.units.generation_key`
    (prompt content + seed) without importing the runtime: the provider
    layer only sees messages and a config.
    """
    body = "\x1f".join(
        [f"{m.role}:{m.content}" for m in messages] + [f"s={config.seed}"]
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class FaultyProvider:
    """A registered provider wrapped in a deterministic fault injector.

    Fault order per request: permanent (always fails), then transient /
    truncate (fail the first ``plan.transient_times`` calls, then pass
    through), then a latency spike, then the real provider.  Successful
    outputs are the wrapped provider's own bytes — injection never
    alters a payload that the harness will cache, which is what keeps
    healed runs bit-identical.

    Truncation is surfaced the way well-behaved SDKs surface it: the
    provider *detects* the truncated body and raises a retryable
    :class:`~repro.errors.ModelError` (carrying the truncated text in
    the message) instead of returning a silently-short success that
    would poison the content-addressed cache.

    Counters (``calls``, ``injected``) are lock-protected: a
    :class:`~repro.runtime.executors.ThreadExecutor` calls concurrently.
    """

    def __init__(self, provider: ModelAPI, plan: FaultPlan) -> None:
        self.inner = provider
        self.plan = plan
        self.name = provider.name
        self.calls = 0
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._mu = threading.Lock()
        self._struck: dict[tuple[str, str], int] = {}  # (kind, key) -> strikes

    @property
    def injected_total(self) -> int:
        with self._mu:
            return sum(self.injected.values())

    def _strike(self, kind: str, key: str) -> bool:
        """Consume one strike of ``kind`` for ``key`` if one is due."""
        if not self.plan.strikes(kind, key):
            return False
        with self._mu:
            seen = self._struck.get((kind, key), 0)
            if kind != "permanent" and seen >= self.plan.transient_times:
                return False
            self._struck[(kind, key)] = seen + 1
            self.injected[kind] += 1
        return True

    def _inject(self, messages: Sequence[ChatMessage], config: GenerateConfig) -> None:
        key = request_key(messages, config)
        if self._strike("permanent", key):
            raise ModelError(
                f"{self.name}: injected permanent fault for request {key[:12]}"
            )
        if self._strike("transient", key):
            raise ModelError(
                f"{self.name}: injected transient fault for request {key[:12]}"
            )
        if self._strike("truncate", key):
            preview = messages[-1].content[:40] if messages else ""
            raise ModelError(
                f"{self.name}: injected truncated output for request "
                f"{key[:12]} (stop_reason=length, body={preview!r}…)"
            )
        if self.plan.strikes("latency", key):
            with self._mu:
                self.injected["latency"] += 1
            time.sleep(self.plan.latency_s)

    # -- ModelAPI ------------------------------------------------------------

    def generate(
        self, messages: Sequence[ChatMessage], config: GenerateConfig
    ) -> ModelOutput:
        with self._mu:
            self.calls += 1
        self._inject(messages, config)
        return self.inner.generate(messages, config)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyProvider({self.name!r}, {self.plan!r})"


@contextlib.contextmanager
def faulty_models(
    names: Iterable[str], plan: FaultPlan
) -> Iterator[dict[str, FaultyProvider]]:
    """Swap registered providers for fault-injecting wrappers, then restore.

    Yields ``{name: FaultyProvider}`` so tests can assert on call and
    injection counters.  The originals are re-registered on exit even if
    the body raises, so one chaotic test never leaks faults into the
    next.
    """
    wrapped: dict[str, FaultyProvider] = {}
    originals: dict[str, ModelAPI] = {}
    try:
        for name in names:
            inner = get_model(name).provider
            originals[name] = inner
            proxy = FaultyProvider(inner, plan)
            register_model(name, lambda proxy=proxy: proxy)
            wrapped[name] = proxy
        yield wrapped
    finally:
        for name, inner in originals.items():
            register_model(name, lambda inner=inner: inner)


class FaultyStore(RunStore):
    """A :class:`~repro.persist.RunStore` whose appends can be made to fail.

    ``fail_appends`` / ``torn_appends`` name zero-based append-call
    ordinals.  A *failed* append raises :class:`OSError` before any byte
    reaches disk; a *torn* append writes the front half of the first
    record (no newline, no index update) and then raises — simulating a
    crash mid-``write``.  Both leave the store object usable: the next
    successful append terminates the torn tail (see
    :func:`repro.persist.segments.append_blobs`), and a reopen scans
    past it with a corruption warning, losing nothing that was ever
    acknowledged.
    """

    def __init__(
        self,
        path,
        *,
        fail_appends: Iterable[int] = (),
        torn_appends: Iterable[int] = (),
        **kwargs,
    ) -> None:
        super().__init__(path, **kwargs)
        self.append_calls = 0
        self.injected_failures = 0
        self._fail_appends = set(fail_appends)
        self._torn_appends = set(torn_appends)
        self._fault_mu = threading.Lock()

    def _append_payloads(self, payloads) -> None:
        if not payloads:
            return super()._append_payloads(payloads)
        with self._fault_mu:
            call = self.append_calls
            self.append_calls += 1
            torn = call in self._torn_appends
            fail = call in self._fail_appends
            if torn or fail:
                self.injected_failures += 1
        if torn:
            self._tear(payloads[0])
            raise OSError(f"injected torn append (call {call})")
        if fail:
            raise OSError(f"injected append failure (call {call})")
        return super()._append_payloads(payloads)

    def _tear(self, payload) -> None:
        """Leave the front half of a record on the active segment."""
        blob = encode_record(payload)
        segments = list_segments(self._segments_dir)
        seg = segments[-1] if segments else self._segments_dir / segment_name(1)
        with seg.open("ab") as handle:
            handle.write(blob[: max(1, len(blob) // 2)].rstrip(b"\n"))
