"""Virtual-time driver for sans-io programs.

:class:`SimnetDriver` consumes the typed intent stream of a
:mod:`repro.sansio` program and charges every intent to a
:class:`~repro.simnet.Trace` — hop for hop, compute for compute (the
golden latency fixtures pin the resulting costs bit-for-bit). Transport
failures raised by the trace (:class:`~repro.errors.NodeUnreachableError`,
:class:`~repro.errors.PacketLossError`) are *thrown into* the program
at the failing yield, which is where the protocol logic decides to
fail over, back off, or degrade.

The wall-clock counterpart is
:class:`repro.serve.transport.WallTransport`; both drivers honour the
same intent contract (see :mod:`repro.sansio.intents`), which the
equivalence gate in ``tests/test_sansio_equivalence.py`` exercises
under fault injection.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Tuple

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
from repro.simnet.network import Trace

__all__ = ["SimnetDriver"]

#: (context-manager handle, entered span) pairs — the driver's stand-in
#: for the ``with trace.span(...)`` nesting of the inline code.
_SpanStack = List[Tuple[Any, Any]]


class SimnetDriver:
    """Runs sans-io programs against the simulated network.

    *adapters* maps store ids to profile-store adapters (normally
    ``server.adapters``) — the driver performs ``StoreGet``/``StorePut``
    against them, mirroring the in-process calls the inline code made.
    """

    def __init__(self, adapters: Mapping[str, Any]) -> None:
        self.adapters = adapters

    def run(self, program: Program, trace: Trace) -> Any:
        """Drive *program* to completion on *trace*; returns the
        program's return value. Exceptions the program does not handle
        propagate, with any spans it left open closed first (the
        sans-io equivalent of unwinding ``with`` blocks)."""
        spans: _SpanStack = []
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
                    to_send = self._perform(intent, trace, spans)
                except Exception as err:
                    to_throw = err
        except BaseException:
            while spans:
                handle, _span = spans.pop()
                handle.__exit__(None, None, None)
            raise
        finally:
            program.close()

    def _perform(
        self, intent: Intent, trace: Trace, spans: _SpanStack
    ) -> Any:
        if isinstance(intent, Send):
            trace.hop(intent.src, intent.dst, intent.nbytes, intent.note)
        elif isinstance(intent, Compute):
            trace.compute(intent.ms, intent.note)
        elif isinstance(intent, Sleep):
            trace.wait(intent.ms, intent.note)
        elif isinstance(intent, StoreGet):
            return self.adapters[intent.store_id].get(intent.path)
        elif isinstance(intent, StorePut):
            adapter = self.adapters.get(intent.store_id)
            if adapter is not None:
                adapter.put(intent.path, intent.fragment)
        elif isinstance(intent, SpanOpen):
            handle = trace.span(intent.name, **(intent.attrs or {}))
            spans.append((handle, handle.__enter__()))
        elif isinstance(intent, SpanSet):
            spans[-1][1].set(intent.key, intent.value)
        elif isinstance(intent, SpanClose):
            handle, _span = spans.pop()
            handle.__exit__(None, None, None)
        elif isinstance(intent, Mark):
            self._mark(intent, trace)
        elif isinstance(intent, PartReport):
            trace.part_status.extend(intent.statuses)
        elif isinstance(intent, Fork):
            return self._fork(intent, trace)
        else:  # pragma: no cover - new intents must be handled here
            raise TypeError("unknown intent %r" % (intent,))
        return None

    def _mark(self, intent: Mark, trace: Trace) -> None:
        if intent.kind == "retry":
            for _ in range(intent.count):
                trace.note_retry()
        elif intent.kind == "failover":
            for _ in range(intent.count):
                trace.note_failover()
        elif intent.kind == "stale_serve":
            for _ in range(intent.count):
                trace.note_stale_serve()
        elif intent.kind == "degraded":
            trace.note_degraded(intent.count)
        else:  # degraded_item — Mark validates the vocabulary
            trace.note_degraded_item(intent.count)

    def _fork(self, intent: Fork, trace: Trace) -> List[LegOutcome]:
        """Sequential legs on forked branch traces, joined once —
        virtual-time parallelism (elapsed = max over branches). A
        captured leg error lands in its outcome with the branch still
        joined; an uncaptured error propagates before the join, exactly
        like the inline fan-out loops this replaces."""
        outcomes: List[LegOutcome] = []
        branches: List[Trace] = []
        for leg in intent.programs:
            branch = trace.fork()
            try:
                value = self.run(leg, branch)
            except intent.capture as err:
                outcomes.append(LegOutcome(error=err))
            else:
                outcomes.append(LegOutcome(value=value))
            branches.append(branch)
        trace.join(branches)
        return outcomes
