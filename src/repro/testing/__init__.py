"""Chaos-engineering harness: deterministic fault injection for tests.

Everything here exists to *prove* the fault-tolerance layer
(:mod:`repro.runtime.faults`) and the resilience layer
(:mod:`repro.serve.replicated`) — inject provider faults, store I/O
faults and *server-side* faults (kill/restart, slow replicas, overload
refusals) on a fixed seed, then assert the harness heals around them
with bit-identical results.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultyProvider,
    FaultyStore,
    faulty_models,
)
from repro.testing.servers import (
    ChaosStoreServer,
    InProcessServer,
    ServerProcess,
)

__all__ = [
    "FaultPlan",
    "FaultyProvider",
    "FaultyStore",
    "faulty_models",
    "ChaosStoreServer",
    "InProcessServer",
    "ServerProcess",
]
