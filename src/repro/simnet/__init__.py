"""Deterministic simulation substrate: virtual-time event engine, the
converged-network latency/byte-accounting model every benchmark uses,
and the seedable fault-injection layer (E16)."""

from repro.simnet.engine import Simulator, Timer
from repro.simnet.faults import FaultSchedule, FaultState
from repro.simnet.network import (
    DEFAULT_BANDWIDTH_BPMS,
    LinkSpec,
    Network,
    NetworkNode,
    ResilienceCounters,
    Trace,
)

__all__ = [
    "Simulator",
    "Timer",
    "Network",
    "NetworkNode",
    "LinkSpec",
    "Trace",
    "FaultSchedule",
    "FaultState",
    "ResilienceCounters",
    "DEFAULT_BANDWIDTH_BPMS",
]
