"""Wall clocks for the serving layer's spans (ROADMAP item 2).

A :class:`~repro.obs.spans.SpanScope` is timed by any
:class:`~repro.obs.spans.Clock`: a simnet trace hands it virtual time,
the serving layer a :class:`WallClock` — monotonic milliseconds — so
the served span tree has the *same shape* over real time and every
exporter (Chrome trace, summaries) works unchanged on it; the
sim-vs-real calibration in ``bench_e21_wire.py`` leans on exactly
that.

:class:`ManualClock` is the deterministic stand-in for tests: wall
code paths can be exercised without real sleeps or flaky timing.
"""

from __future__ import annotations

import time

from repro.obs.spans import Clock

__all__ = ["ManualClock", "WallClock"]


class WallClock(Clock):
    """Monotonic wall time in milliseconds since construction."""

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def now_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0


class ManualClock(Clock):
    """A clock tests advance by hand — wall code paths without wall
    time."""

    __slots__ = ("_now_ms",)

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = start_ms

    def now_ms(self) -> float:
        return self._now_ms

    def advance(self, ms: float) -> float:
        if ms < 0:
            raise ValueError("clocks only move forward")
        self._now_ms += ms
        return self._now_ms
