"""The wall-clock cost sink: sans-io programs under the real server.

:class:`WallTransport` runs a program on the one driver loop,
:class:`repro.simnet.driver.SimnetDriver`, with a wall sink in place of
a virtual :class:`~repro.simnet.Trace`. A ``Send`` is decided by the
simulated network's own fault model,
:class:`~repro.simnet.faults.FaultState`, and counted in ``serve.sends``
(a refusal also in ``serve.send_failures``); it is never sized.
``Compute`` and ``Sleep`` cost nothing: the real compute happens inline
and no delay is modelled. Marks count the ``serve.*`` resilience
metrics, and fork legs run in order, each on a child span scope. The
loop never yields to the event loop, so a served request runs straight
through; ``run`` stays a coroutine for its callers.

The scope defaults to the request's, which the request pipeline
publishes in :data:`REQUEST_SCOPE`: a handler's
``transport.run(program)`` nests under ``serve.request``, so one
request is one trace. Outside a request a run records nothing.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any, List, Mapping, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanScope
from repro.obs.wallclock import WallClock
from repro.sansio.intents import Program, Send
from repro.simnet.driver import SimnetDriver
from repro.simnet.faults import FaultState

__all__ = ["REQUEST_SCOPE", "WallTransport"]

#: The span scope of the request being served, set by the request
#: pipeline; ``WallTransport.run`` nests under it.
REQUEST_SCOPE: ContextVar[Optional[SpanScope]] = ContextVar(
    "REQUEST_SCOPE", default=None
)

#: The counters a wall sink feeds, in registration order.
_COUNTERS = (
    "serve.degraded_responses", "serve.failovers", "serve.retries",
    "serve.stale_serves", "serve.sends", "serve.send_failures",
)


class _WallSink:
    """One run's (or fork leg's) charges on the wall clock."""

    def __init__(
        self, faults: Optional[FaultState], metrics: MetricsRegistry,
        scope: SpanScope,
    ) -> None:
        self.faults = faults
        self.metrics = metrics
        self.scope = scope

    def send(self, intent: Send) -> None:
        self.metrics.counter("serve.sends").inc()
        if self.faults is not None:
            refusal = self.faults.verdict(intent.src, intent.dst)
            if refusal is not None:
                self.metrics.counter("serve.send_failures").inc()
                raise refusal[0]

    # Part statuses travel in the program's return value.
    def report_parts(self, statuses: Sequence[object]) -> None:
        pass

    # The real compute happens inline, and no delay is modelled.
    def compute(self, ms: float, note: str = "") -> None:
        pass

    wait = compute

    def note_retry(self) -> None:
        self.metrics.counter("serve.retries").inc()

    def note_failover(self) -> None:
        self.metrics.counter("serve.failovers").inc()

    def note_stale_serve(self) -> None:
        self.metrics.counter("serve.stale_serves").inc()

    # A degraded query or batched item is one degraded *response*,
    # whatever the number of parts it lost.
    def note_degraded(self, parts: int = 1) -> None:
        self.metrics.counter("serve.degraded_responses").inc()

    note_degraded_item = note_degraded

    def fork(self) -> "_WallSink":
        return _WallSink(self.faults, self.metrics, self.scope.fork_child())

    def join(self, branches: List["_WallSink"]) -> None:
        pass


class WallTransport:
    """Drives sans-io programs for the server, on the wall clock."""

    def __init__(
        self,
        adapters: Mapping[str, Any],
        faults: Optional[FaultState] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.faults = faults
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name in _COUNTERS:
            self.metrics.counter(name)
        self._driver = SimnetDriver(adapters)

    async def run(
        self, program: Program, scope: Optional[SpanScope] = None
    ) -> Any:
        """Drive *program* to completion; returns its return value.

        Spans go to *scope*, by default the request's
        (:data:`REQUEST_SCOPE`). Spans the program left open are
        closed first either way; a program that *returned* with a
        span open raises ``RuntimeError``."""
        if scope is None:
            scope = REQUEST_SCOPE.get() or SpanScope(None, WallClock())
        return self._driver.run(
            program, _WallSink(self.faults, self.metrics, scope)
        )
