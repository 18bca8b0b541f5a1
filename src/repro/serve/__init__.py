"""The real serving layer (ISSUE 9): GUPster over asyncio HTTP.

The sans-io refactor (:mod:`repro.sansio`) made the Section 5.2 query
patterns pure programs over typed I/O intents; this package is the
second consumer of those programs — a wall-clock asyncio front end
that serves them over real sockets:

* :mod:`~repro.serve.transport` — the async intent driver (faults are
  the simulated network's own :class:`~repro.simnet.FaultState`);
* :mod:`~repro.serve.http` — a minimal stdlib HTTP/1.1 layer;
* :mod:`~repro.serve.status` — the deliberate error → HTTP status map;
* :mod:`~repro.serve.middleware` — error/span/metrics/admission onion;
* :mod:`~repro.serve.admission` — bounded queues + backpressure;
* :mod:`~repro.serve.routers` — query / provisioning / subscription;
* :mod:`~repro.serve.jobs` — bus drain + cache sweep loops;
* :mod:`~repro.serve.app` — the factory tying it all together.

``python -m repro.serve`` boots the demo world on a local port;
``bench_e21_wire.py`` measures it against the E19 virtual-time
predictions.
"""

from repro.serve.admission import AdmissionGate, AdmissionRejected
from repro.serve.app import (
    App,
    AppServer,
    ServeWorld,
    build_demo_world,
    create_app,
)
from repro.serve.http import HttpServer, Request, Response
from repro.serve.jobs import BackgroundJobs
from repro.serve.middleware import RequestPipeline, context_from_headers
from repro.serve.status import status_for
from repro.serve.transport import WallTransport

__all__ = [
    "AdmissionGate",
    "AdmissionRejected",
    "App",
    "AppServer",
    "BackgroundJobs",
    "HttpServer",
    "Request",
    "RequestPipeline",
    "Response",
    "ServeWorld",
    "WallTransport",
    "build_demo_world",
    "context_from_headers",
    "create_app",
    "status_for",
]
