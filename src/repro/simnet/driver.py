"""The one driver loop for sans-io programs.

:class:`SimnetDriver` consumes the typed intent stream of a
:mod:`repro.sansio` program: it performs store calls, hands span
intents to ``sink.scope`` and charges every other intent to a
:class:`CostSink` — a virtual-time :class:`~repro.simnet.Trace` (the
golden latency fixtures pin its costs bit-for-bit) or the wall sink of
:class:`repro.serve.transport.WallTransport`. Transport failures a
sink's ``send`` raises are *thrown into* the program at the failing
yield, which is where the protocol logic decides to fail over, back
off, or degrade. Fork legs run one after another, in order, so a leg
sees every earlier leg's effect on a shared health ledger. The
equivalence gate in ``tests/test_sansio_equivalence.py`` drives both
sinks under fault injection.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Protocol, Sequence, TypeVar

from repro.obs.spans import SpanScope
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

__all__ = ["CostSink", "SimnetDriver"]

_Sink = TypeVar("_Sink", bound="CostSink")


class CostSink(Protocol):
    """What the loop charges intents to. ``send`` gets the intent
    whole, so only a sink that sizes messages reads ``Send.nbytes``;
    ``fork`` opens one :class:`Fork` leg, ``join`` closes the group."""

    scope: SpanScope

    def send(self, intent: Send) -> None: ...
    def report_parts(self, statuses: Sequence[object]) -> None: ...
    def compute(self, ms: float, note: str = "") -> None: ...
    def wait(self, ms: float, note: str = "") -> None: ...
    def note_retry(self) -> None: ...
    def note_failover(self) -> None: ...
    def note_stale_serve(self) -> None: ...
    def note_degraded(self, parts: int = 1) -> None: ...
    def note_degraded_item(self, parts: int = 1) -> None: ...
    def fork(self: _Sink) -> _Sink: ...
    def join(self: _Sink, branches: List[_Sink]) -> None: ...


class SimnetDriver:
    """Runs sans-io programs against a cost sink.

    *adapters* maps store ids to profile-store adapters (normally
    ``server.adapters``) — the driver performs ``StoreGet``/``StorePut``
    against them, mirroring the in-process calls the inline code made.
    """

    def __init__(self, adapters: Mapping[str, Any]) -> None:
        self.adapters = adapters

    def run(self, program: Program, sink: CostSink) -> Any:
        """Drive *program* to completion on *sink*; returns the
        program's return value. Spans the program left open on
        ``sink.scope`` are closed first either way (the sans-io
        equivalent of unwinding ``with`` blocks); exceptions the
        program does not handle then propagate, and a program that
        *returned* with a span open raises ``RuntimeError`` — with
        observability on or off, since the scope counts depth
        either way."""
        scope = sink.scope
        depth = scope.depth
        try:
            result = self._drive(program, sink, depth)
        finally:
            leaked = scope.unwind(depth)
            program.close()
        if leaked:
            raise RuntimeError(
                "program returned with %d open span(s)" % leaked
            )
        return result

    def _drive(self, program: Program, sink: CostSink, depth: int) -> Any:
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
                to_send = self._perform(intent, sink, depth)
            except Exception as err:
                to_throw = err

    def _perform(self, intent: Intent, sink: CostSink, depth: int) -> Any:
        if isinstance(intent, Send):
            sink.send(intent)
        elif isinstance(intent, Compute):
            sink.compute(intent.ms, intent.note)
        elif isinstance(intent, Sleep):
            sink.wait(intent.ms, intent.note)
        elif isinstance(intent, StoreGet):
            return self.adapters[intent.store_id].get(intent.path)
        elif isinstance(intent, StorePut):
            adapter = self.adapters.get(intent.store_id)
            if adapter is not None:
                adapter.put(intent.path, intent.fragment)
        elif isinstance(intent, SpanOpen):
            sink.scope.open(intent.name, intent.attrs)
        elif isinstance(intent, SpanSet):
            sink.scope.set(intent.key, intent.value)
        elif isinstance(intent, SpanClose):
            sink.scope.close(depth)
        elif isinstance(intent, Mark):
            self._mark(intent, sink)
        elif isinstance(intent, PartReport):
            sink.report_parts(intent.statuses)
        elif isinstance(intent, Fork):
            return self._fork(intent, sink)
        else:  # pragma: no cover - new intents must be handled here
            raise TypeError("unknown intent %r" % (intent,))
        return None

    def _mark(self, intent: Mark, sink: CostSink) -> None:
        if intent.kind == "retry":
            for _ in range(intent.count):
                sink.note_retry()
        elif intent.kind == "failover":
            for _ in range(intent.count):
                sink.note_failover()
        elif intent.kind == "stale_serve":
            for _ in range(intent.count):
                sink.note_stale_serve()
        elif intent.kind == "degraded":
            sink.note_degraded(intent.count)
        else:  # degraded_item — Mark validates the vocabulary
            sink.note_degraded_item(intent.count)

    def _fork(self, intent: Fork, sink: CostSink) -> List[LegOutcome]:
        """Legs in order, each on its own forked sink, joined once (on
        a trace: virtual-time parallelism, elapsed = max over
        branches). A captured leg error lands in its outcome with the
        branch still joined; an uncaptured error propagates before the
        join, exactly like the inline fan-out loops this replaces."""
        outcomes: List[LegOutcome] = []
        branches: List[CostSink] = []
        for leg in intent.programs:
            branch = sink.fork()
            try:
                value = self.run(leg, branch)
            except intent.capture as err:
                outcomes.append(LegOutcome(error=err))
            else:
                outcomes.append(LegOutcome(value=value))
            branches.append(branch)
        sink.join(branches)
        return outcomes
