"""The real-transport driver: sans-io programs under asyncio.

:class:`WallTransport` is the wall-clock twin of
:class:`repro.simnet.driver.SimnetDriver`. It consumes the identical
typed intent stream (:mod:`repro.sansio.intents`) but *performs* the
intents instead of charging them to a virtual trace:

* ``Send``/``Compute``/``Sleep`` are one scheduler yield each — the
  driver models no delay, so failure detection and retry backoff cost
  a yield, not wall time, while fork legs still interleave on the
  event loop;
* ``Fork`` becomes ``asyncio.gather`` — real concurrency where the
  simulator models max-of-branches;
* spans land in a :class:`~repro.obs.SpanRecorder` with wall-clock
  timestamps via :class:`~repro.obs.wallclock.WallSpanScope`;
* ``Mark``/``PartReport`` feed ``serve.*`` metrics counters.

Fault injection is the simulated network's own:
:class:`~repro.simnet.faults.FaultState` (which a ``Network`` is)
decides every send, so one failure description means the same thing to
both drivers; this one charges a refused send to
``serve.send_failures`` and throws the error into the program.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional

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
from repro.simnet.faults import FaultState

__all__ = ["WallTransport"]

#: Per-mark metric names (``serve.*`` namespace).
_MARK_METRICS: Dict[str, str] = {
    "retry": "serve.retries",
    "failover": "serve.failovers",
    "stale_serve": "serve.stale_serves",
    "degraded": "serve.degraded_responses",
    "degraded_item": "serve.degraded_responses",
}


class WallTransport:
    """Drives sans-io programs over real time on an asyncio loop."""

    def __init__(
        self,
        adapters: Mapping[str, Any],
        faults: Optional[FaultState] = None,
        recorder: Optional[SpanRecorder] = None,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.adapters = adapters
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
        elif isinstance(intent, (Compute, Sleep)):
            # Real compute happens inline (the host calls the engine's
            # pure collaborators directly) and no delay is modelled:
            # both are a yield point, so fork legs interleave.
            await asyncio.sleep(0)
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
        if self.faults is not None:
            refusal = self.faults.verdict(intent.src, intent.dst)
            if refusal is not None:
                error, timed_out = refusal
                if timed_out:
                    # Where failure detection would wait: one yield.
                    await asyncio.sleep(0)
                self.metrics.counter("serve.send_failures").inc()
                raise error
        await asyncio.sleep(0)

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
