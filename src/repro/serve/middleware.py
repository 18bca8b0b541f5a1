"""Request middleware: the onion around every route handler.

Order (outermost first) is load-bearing:

1. **Error mapping** — any :class:`~repro.errors.ReproError` becomes
   the deliberate JSON status from :mod:`repro.serve.status`; any
   other exception becomes an opaque 500. A traceback never reaches
   the wire in either case (satellite: no internal exception leaks).
2. **Request context** — one :class:`RequestSpanContext` per request:
   a request id, a wall-clock span tree scoped to the request
   (shield/span scoping), latency + status metrics.
3. **Admission** — the bounded-queue gate; shed requests get 503 +
   ``Retry-After`` *before* any protocol work happens.

Routers then read the caller's identity from ``X-Requester`` /
``X-Relationship`` / ``X-Purpose`` / ``X-Hour`` / ``X-Weekday``
headers via :func:`context_from_headers` — the privacy shield
evaluates the *claimed* requester exactly as the simulated worlds do
(GUPster's trust model authenticates at the transport edge; the repro
keeps that edge explicit and unauthenticated).
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.access.context import RequestContext
from repro.errors import PolicyError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Clock, SpanRecorder, SpanScope
from repro.obs.wallclock import WallClock
from repro.serve.admission import AdmissionGate, AdmissionRejected
from repro.serve.http import (
    Handler,
    HttpProtocolError,
    Request,
    Response,
)
from repro.serve.status import status_for
from repro.serve.transport import REQUEST_SCOPE

__all__ = [
    "RequestPipeline",
    "context_from_headers",
    "error_payload",
]

#: Wall latency buckets (ms) — wider than the virtual defaults since
#: real scheduling noise lives here.
WALL_LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0,
)


def error_payload(error: BaseException) -> Response:
    """The JSON body an error is served as. Message text comes from
    the exception (our own, deliberately phrased diagnostics); the
    traceback and any non-Repro internals stay inside the process."""
    if isinstance(error, HttpProtocolError):
        # Protocol errors carry their own status (413 for oversized
        # bodies, 400 otherwise) — they are about the bytes on the
        # wire, not the profile network.
        return Response.json(
            {"error": "protocol", "detail": str(error)},
            status=error.status,
        )
    status, slug = status_for(error)
    if isinstance(error, ReproError):
        detail = str(error)
    else:
        # Internal bug: the class name is as much as the wire gets.
        detail = "internal error (%s)" % type(error).__name__
    return Response.json(
        {"error": slug, "detail": detail}, status=status
    )


def context_from_headers(request: Request) -> RequestContext:
    """Build the shield's :class:`RequestContext` from the identity
    headers; malformed values surface as
    :class:`~repro.errors.PolicyError` (mapped to 400)."""
    requester = request.headers.get("x-requester", "anonymous")
    relationship = request.headers.get("x-relationship", "third-party")
    purpose = request.headers.get("x-purpose", "query")
    try:
        hour = int(request.headers.get("x-hour", "12"))
        weekday = int(request.headers.get("x-weekday", "0"))
    except ValueError as err:
        raise PolicyError("bad context header: %s" % err) from err
    return RequestContext(
        requester,
        relationship=relationship,
        purpose=purpose,
        hour=hour,
        weekday=weekday,
    )


class RequestPipeline:
    """Wraps a route handler in the error/span/metrics/admission
    onion; the result is still a plain :class:`Handler`."""

    def __init__(
        self,
        gate: Optional[AdmissionGate] = None,
        recorder: Optional[SpanRecorder] = None,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.gate = gate
        self.recorder = recorder
        self.clock = clock if clock is not None else WallClock()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.metrics.counter(
            "serve.requests", help="Requests entering the pipeline."
        )
        self.metrics.counter(
            "serve.errors", help="Requests answered with a 4xx/5xx."
        )
        self.metrics.histogram(
            "serve.wall_latency_ms",
            buckets=WALL_LATENCY_BUCKETS_MS,
            help="Wall-clock request latency.",
        )
        self._request_ids = itertools.count(1)

    def wrap(self, handler: Handler) -> Handler:
        async def pipeline(request: Request) -> Response:
            request_id = next(self._request_ids)
            self.metrics.counter("serve.requests").inc()
            started_ms = self.clock.now_ms()
            scope = SpanScope(self.recorder, self.clock)
            # Hold the request span directly: attributes must land on
            # it whatever the handler left open above it.
            request_span = scope.open("serve.request", {
                "request_id": request_id,
                "method": request.method,
                "path": request.path,
            })
            published = REQUEST_SCOPE.set(scope)
            try:
                if self.gate is not None:
                    try:
                        async with self.gate:
                            response = await handler(request)
                    except AdmissionRejected as shed:
                        response = Response.json(
                            {
                                "error": "at-capacity",
                                "detail": "admission queue full",
                            },
                            status=503,
                            headers={
                                "retry-after":
                                    "%d" % max(1, round(
                                        shed.retry_after_s
                                    )),
                            },
                        )
                else:
                    response = await handler(request)
            except Exception as err:  # noqa: BLE001 - total by design
                response = error_payload(err)
            finally:
                REQUEST_SCOPE.reset(published)
            if request_span is not None:
                request_span.set("status", response.status)
            scope.unwind()  # closes leaked spans, then the request span
            latency_ms = self.clock.now_ms() - started_ms
            self.metrics.histogram(
                "serve.wall_latency_ms",
                buckets=WALL_LATENCY_BUCKETS_MS,
            ).observe(latency_ms)
            if response.status >= 400:
                self.metrics.counter("serve.errors").inc()
            response.headers.setdefault(
                "x-request-id", str(request_id)
            )
            return response

        return pipeline
