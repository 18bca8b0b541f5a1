"""The real-transport driver: sans-io programs under asyncio.

:class:`WallTransport` is the wall-clock twin of
:class:`repro.simnet.driver.SimnetDriver`. It consumes the identical
typed intent stream (:mod:`repro.sansio.intents`) but *performs* the
intents instead of charging them to a virtual trace:

* ``Send``/``Sleep`` become real (scaled, capped) ``asyncio.sleep``
  awaits — ``time_scale=0`` (the default) degenerates every delay to
  a bare yield point, so tests and the equivalence gate run at full
  speed while fork legs still interleave on the event loop;
* ``Fork`` becomes ``asyncio.gather`` — real concurrency where the
  simulator models max-of-branches;
* spans land in a :class:`~repro.obs.SpanRecorder` with wall-clock
  timestamps via :class:`~repro.obs.wallclock.WallSpanScope`;
* ``Mark``/``PartReport`` feed ``serve.*`` metrics counters.

Fault injection mirrors the simulated network's impairments so the
equivalence property test can inject the *same* failure schedule on
both sides: :class:`FaultPlan` carries failed nodes (source checked
before target, exactly like ``Trace._hop``), deterministic forced
drops with one shared per-link budget keyed like
``Network.force_drops``, and per-link slow-reply delays. Failure
detection costs a (scaled) ``detect_timeout_ms`` sleep before the
error is thrown into the program — the wall analogue of the charged
virtual timeout.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import NodeUnreachableError, PacketLossError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.wallclock import (
    NULL_SPAN_SCOPE,
    Clock,
    WallClock,
    WallSpanScope,
)
from repro.sansio.intents import (
    Compute,
    Fork,
    Intent,
    LegOutcome,
    Mark,
    PartReport,
    Program,
    Send,
    Sleep,
    SpanClose,
    SpanOpen,
    SpanSet,
    StoreGet,
    StorePut,
)

__all__ = ["FaultPlan", "WallTransport", "DEFAULT_DETECT_TIMEOUT_MS"]

#: Wall twin of ``Network.detect_timeout_ms`` — model milliseconds
#: spent noticing a dead peer before the transport error surfaces.
DEFAULT_DETECT_TIMEOUT_MS = 200.0

#: Hard ceiling on any single real sleep: whatever the model says, a
#: serving process must never block a request handler for longer.
DEFAULT_MAX_SLEEP_MS = 1_000.0

#: Per-mark metric names (``serve.*`` namespace).
_MARK_METRICS: Dict[str, str] = {
    "retry": "serve.retries",
    "failover": "serve.failovers",
    "stale_serve": "serve.stale_serves",
    "degraded": "serve.degraded_responses",
    "degraded_item": "serve.degraded_responses",
}


class FaultPlan:
    """Deterministic wall-side impairments, mirroring
    :class:`~repro.simnet.Network` fault semantics."""

    def __init__(self) -> None:
        self._failed: Set[str] = set()
        self._forced_drops: Dict[Tuple[str, str], int] = {}
        self._slow: Dict[Tuple[str, str], float] = {}

    def fail(self, node: str) -> None:
        self._failed.add(node)

    def restore(self, node: str) -> None:
        self._failed.discard(node)

    def is_failed(self, node: str) -> bool:
        return node in self._failed

    @staticmethod
    def _link(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def force_drops(self, a: str, b: str, count: int = 1) -> None:
        """Drop the next *count* sends on the link, either direction
        (one shared budget — identical to ``Network.force_drops``)."""
        if count < 0:
            raise ValueError("drop count must be >= 0")
        key = self._link(a, b)
        if count == 0:
            self._forced_drops.pop(key, None)
        else:
            self._forced_drops[key] = count

    def take_drop(self, src: str, dst: str) -> bool:
        """Consume one forced-drop decision for a send src→dst."""
        key = self._link(src, dst)
        budget = self._forced_drops.get(key, 0)
        if budget <= 0:
            return False
        if budget == 1:
            del self._forced_drops[key]
        else:
            self._forced_drops[key] = budget - 1
        return True

    def slow_link(self, a: str, b: str, extra_ms: float) -> None:
        """Add *extra_ms* (model time) to every send on the link —
        the slow-reply impairment. 0 clears."""
        if extra_ms < 0:
            raise ValueError("slow-link delay must be >= 0")
        key = self._link(a, b)
        if extra_ms == 0:
            self._slow.pop(key, None)
        else:
            self._slow[key] = extra_ms

    def slow_ms(self, src: str, dst: str) -> float:
        return self._slow.get(self._link(src, dst), 0.0)


class WallTransport:
    """Drives sans-io programs over real time on an asyncio loop."""

    def __init__(
        self,
        adapters: Mapping[str, Any],
        time_scale: float = 0.0,
        base_latency_ms: float = 0.0,
        bandwidth_bpms: float = 1250.0,
        detect_timeout_ms: float = DEFAULT_DETECT_TIMEOUT_MS,
        max_sleep_ms: float = DEFAULT_MAX_SLEEP_MS,
        faults: Optional[FaultPlan] = None,
        recorder: Optional[SpanRecorder] = None,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if time_scale < 0:
            raise ValueError("time scale must be >= 0")
        self.adapters = adapters
        #: Real seconds slept per model millisecond × 1000 — i.e. a
        #: model delay of ``d`` ms sleeps ``d * time_scale`` real ms.
        #: 0 turns every delay into a bare yield point.
        self.time_scale = time_scale
        self.base_latency_ms = base_latency_ms
        self.bandwidth_bpms = bandwidth_bpms
        self.detect_timeout_ms = detect_timeout_ms
        self.max_sleep_ms = max_sleep_ms
        self.faults = faults
        self.recorder = recorder
        self.clock = clock if clock is not None else WallClock()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        for metric in sorted(set(_MARK_METRICS.values())):
            self.metrics.counter(metric)
        self.metrics.counter("serve.sends")
        self.metrics.counter("serve.send_failures")

    # -- timing --------------------------------------------------------------

    def send_delay_ms(self, nbytes: int) -> float:
        """Model latency of one send (before scaling)."""
        return self.base_latency_ms + nbytes / self.bandwidth_bpms

    async def _sleep_model_ms(self, model_ms: float) -> None:
        real_ms = min(model_ms * self.time_scale, self.max_sleep_ms)
        await asyncio.sleep(real_ms / 1000.0)

    # -- the driver loop -----------------------------------------------------

    async def run(
        self, program: Program, scope: Optional[Any] = None
    ) -> Any:
        """Drive *program* to completion; returns its return value.

        *scope* is the span sink (a
        :class:`~repro.obs.wallclock.WallSpanScope`); by default a
        fresh one is opened per run when a recorder is attached."""
        if scope is None:
            scope = (
                WallSpanScope(self.recorder, self.clock)
                if self.recorder is not None
                else NULL_SPAN_SCOPE
            )
        try:
            to_send: Any = None
            to_throw: Optional[BaseException] = None
            while True:
                try:
                    if to_throw is not None:
                        error, to_throw = to_throw, None
                        intent = program.throw(error)
                    else:
                        intent = program.send(to_send)
                except StopIteration as stop:
                    return stop.value
                to_send = None
                try:
                    to_send = await self._perform(intent, scope)
                except Exception as err:
                    to_throw = err
        except BaseException:
            scope.unwind()
            raise
        finally:
            program.close()

    async def _perform(self, intent: Intent, scope: Any) -> Any:
        if isinstance(intent, Send):
            await self._send(intent)
        elif isinstance(intent, Compute):
            # Real compute happens inline (the host calls the engine's
            # pure collaborators directly); the model charge needs no
            # extra wall delay.
            await asyncio.sleep(0)
        elif isinstance(intent, Sleep):
            await self._sleep_model_ms(intent.ms)
        elif isinstance(intent, StoreGet):
            return self.adapters[intent.store_id].get(intent.path)
        elif isinstance(intent, StorePut):
            adapter = self.adapters.get(intent.store_id)
            if adapter is not None:
                adapter.put(intent.path, intent.fragment)
        elif isinstance(intent, SpanOpen):
            scope.open(intent.name, intent.attrs)
        elif isinstance(intent, SpanSet):
            scope.set(intent.key, intent.value)
        elif isinstance(intent, SpanClose):
            scope.close()
        elif isinstance(intent, Mark):
            # A degraded query or batched item is one degraded
            # *response*; its count is the parts it lost.
            degraded = intent.kind in ("degraded", "degraded_item")
            self.metrics.counter(
                _MARK_METRICS[intent.kind]
            ).inc(1 if degraded else intent.count)
        elif isinstance(intent, PartReport):
            pass  # statuses travel in the program's return value
        elif isinstance(intent, Fork):
            return await self._fork(intent, scope)
        else:  # pragma: no cover - new intents must be handled here
            raise TypeError("unknown intent %r" % (intent,))
        return None

    async def _send(self, intent: Send) -> None:
        self.metrics.counter("serve.sends").inc()
        plan = self.faults
        extra_ms = 0.0
        if plan is not None:
            if plan.is_failed(intent.src):
                self.metrics.counter("serve.send_failures").inc()
                raise NodeUnreachableError(
                    "source %r is down" % intent.src
                )
            if plan.is_failed(intent.dst):
                await self._sleep_model_ms(self.detect_timeout_ms)
                self.metrics.counter("serve.send_failures").inc()
                raise NodeUnreachableError(
                    "node %r is down" % intent.dst
                )
            if plan.take_drop(intent.src, intent.dst):
                await self._sleep_model_ms(self.detect_timeout_ms)
                self.metrics.counter("serve.send_failures").inc()
                raise PacketLossError(
                    "message %s -> %s lost" % (intent.src, intent.dst)
                )
            extra_ms = plan.slow_ms(intent.src, intent.dst)
        await self._sleep_model_ms(
            self.send_delay_ms(intent.nbytes) + extra_ms
        )

    async def _fork(self, intent: Fork, scope: Any) -> List[LegOutcome]:
        """Real concurrency: every leg runs as its own task; captured
        leg errors land in that leg's outcome, anything else cancels
        the gather and propagates into the parent program."""

        async def leg(program: Program) -> LegOutcome:
            child = scope.fork_child()
            try:
                value = await self.run(program, scope=child)
            except intent.capture as err:
                return LegOutcome(error=err)
            return LegOutcome(value=value)

        if not intent.programs:
            return []
        return list(
            await asyncio.gather(*(leg(p) for p in intent.programs))
        )
