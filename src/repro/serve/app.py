"""The app factory: a GUPster world served over real HTTP.

:class:`ServeWorld` bundles everything one serving process owns — the
GUPster server and its adapters, the (virtual-time) change bus, the
sans-io engine + wall transport, clocks, spans and metrics.
:class:`App` mounts the routers behind the middleware pipeline and
exposes :meth:`App.handle` — a complete request → response function
that tests drive *without sockets*; :class:`AppServer` is the thin
``asyncio.start_server`` wrapper around it for real traffic
(``python -m repro.serve``).

:func:`build_demo_world` is the split-address-book world every
failure experiment uses (personal slice on alpha ∥ beta, corporate
slice only at corp) so the quickstart and ``bench_e21_wire.py``
exercise referral fan-out, merging and degradation out of the box.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.core.cache import ComponentCache
from repro.core.resilience import RetryPolicy
from repro.core.server import GupsterServer
from repro.bus import CacheInvalidationListener, ChangeBus
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.wallclock import Clock, WallClock
from repro.sansio.engine import SansIoQueryEngine, StandaloneQueryHost
from repro.serve.admission import AdmissionGate
from repro.serve.http import HttpServer, Request, Response
from repro.serve.jobs import BackgroundJobs
from repro.serve.middleware import RequestPipeline
from repro.serve.routers import (
    ProvisioningRouter,
    QueryRouter,
    SubscriptionRouter,
)
from repro.serve.transport import WallTransport
from repro.simnet import FaultState, Network, Simulator
from repro.workloads import SyntheticAdapter

__all__ = [
    "App",
    "AppServer",
    "SERVE_MAX_SPANS",
    "ServeWorld",
    "build_demo_world",
    "create_app",
]

#: Retention of the recorder a :class:`ServeWorld` creates for itself:
#: roughly the last 4-8 k requests. A memory budget (~400 B a span),
#: not a speed knob — eviction is O(1) at any cap, and nothing in the
#: server reads further back. The simulator's ``DEFAULT_MAX_SPANS`` is
#: sized to hold a whole experiment instead.
SERVE_MAX_SPANS = 16_384


class ServeWorld:
    """Everything a serving process owns, wired once at boot."""

    def __init__(
        self,
        server: GupsterServer,
        client_node: str = "http-client",
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        bus: Optional[ChangeBus] = None,
        retry_policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultState] = None,
        clock: Optional[Clock] = None,
        recorder: Optional[SpanRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.server = server
        self.client_node = client_node
        self.sim = sim if sim is not None else Simulator()
        self.network = network
        self.bus = bus
        self.clock = clock if clock is not None else WallClock()
        self.recorder = (
            recorder if recorder is not None
            else SpanRecorder(max_spans=SERVE_MAX_SPANS)
        )
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        server.bind_registry(self.metrics)
        self.host = StandaloneQueryHost(
            server, retry_policy=retry_policy
        )
        self.host.health.bind_registry(self.metrics)
        self.engine = SansIoQueryEngine(self.host)
        self.transport = WallTransport(
            server.adapters,
            faults=faults,
            recorder=self.recorder,
            clock=self.clock,
            metrics=self.metrics,
        )

    def now_ms(self) -> float:
        """The model timestamp stamped on requests: wall ms since this
        process booted (cache TTLs and signature freshness windows are
        measured against it)."""
        return self.clock.now_ms()


def build_demo_world(
    ttl_ms: float = 60_000.0,
    stale_grace_ms: float = 120_000.0,
    with_bus: bool = True,
    faults: Optional[FaultState] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> ServeWorld:
    """The split address-book world (bench_e16 shape): personal slice
    replicated on alpha ∥ beta, corporate slice only at corp."""
    network = Network(seed=16)
    for node, region in (
        ("gupster", "core"),
        ("http-client", "internet"),
        ("gup.alpha.com", "internet"),
        ("gup.beta.com", "core"),
        ("gup.corp.com", "enterprise"),
    ):
        network.add_node(node, region=region)
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=256,
            default_ttl_ms=ttl_ms,
            stale_grace_ms=stale_grace_ms,
        ),
        enforce_policies=False,
    )
    book = "/user[@id='u1']/address-book"
    for store_id, seed in (
        ("gup.alpha.com", 5),
        ("gup.beta.com", 5),
        ("gup.corp.com", 9),
    ):
        adapter = SyntheticAdapter(store_id, seed=seed)
        adapter.add_user("u1", ["address-book"])
        server.join(adapter, user_ids=[])
    server.register_component(
        book + "/item[@type='personal']", "gup.alpha.com"
    )
    server.register_component(
        book + "/item[@type='personal']", "gup.beta.com"
    )
    server.register_component(
        book + "/item[@type='corporate']", "gup.corp.com"
    )
    sim = Simulator()
    bus: Optional[ChangeBus] = None
    if with_bus:
        bus = ChangeBus(sim, network, origin_node="gupster")
        if server.cache is not None:
            bus.attach(
                CacheInvalidationListener("serve-cache", server.cache)
            )
    return ServeWorld(
        server,
        sim=sim,
        network=network,
        bus=bus,
        retry_policy=retry_policy,
        faults=faults,
    )


class App:
    """Routes behind the middleware onion; socket-free by itself."""

    def __init__(
        self,
        world: ServeWorld,
        gate: Optional[AdmissionGate] = None,
        jobs: Optional[BackgroundJobs] = None,
    ) -> None:
        self.world = world
        self.gate = (
            gate if gate is not None
            else AdmissionGate(metrics=world.metrics)
        )
        self.jobs = jobs if jobs is not None else BackgroundJobs(world)
        self.query = QueryRouter(world)
        self.provisioning = ProvisioningRouter(world)
        self.subscriptions = SubscriptionRouter(world)
        self.pipeline = RequestPipeline(
            gate=self.gate,
            recorder=world.recorder,
            clock=world.clock,
            metrics=world.metrics,
        )
        self.handle = self.pipeline.wrap(self._route)

    async def _route(self, request: Request) -> Response:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return Response.json({
                "ok": True,
                "stores": sorted(self.world.server.adapters),
                "jobs": self.jobs.stats(),
            })
        if path == "/metrics" and method == "GET":
            return Response.text(
                to_prometheus(self.world.metrics),
                content_type="text/plain; version=0.0.4",
            )
        if path == "/v1/query" and method == "GET":
            return await self.query.handle(request)
        if path == "/v1/provision" and method == "POST":
            return await self.provisioning.handle(request)
        if path == "/v1/subscriptions" or path.startswith(
            "/v1/subscriptions/"
        ):
            return await self.subscriptions.handle(request)
        return Response.json(
            {"error": "not-found", "detail": path}, status=404
        )


class AppServer:
    """App + background jobs behind a real listening socket."""

    def __init__(
        self, app: App, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.http = HttpServer(app.handle, host=host, port=port)

    async def start(self) -> Tuple[str, int]:
        self.app.jobs.start()
        return await self.http.start()

    async def stop(self) -> None:
        await self.app.jobs.stop()
        await self.http.stop()


def create_app(
    world: Optional[ServeWorld] = None,
    max_inflight: int = 64,
    max_queued: int = 128,
) -> App:
    """The factory: default world, bounded admission, jobs wired."""
    if world is None:
        world = build_demo_world()
    gate = AdmissionGate(
        max_inflight=max_inflight,
        max_queued=max_queued,
        metrics=world.metrics,
    )
    return App(world, gate=gate)


async def serve_forever(
    host: str = "127.0.0.1", port: int = 8080
) -> None:  # pragma: no cover - the __main__ path
    """Build a default app and serve it until cancelled."""
    server = AppServer(create_app(), host=host, port=port)
    bound_host, bound_port = await server.start()
    print("serving GUPster on http://%s:%d" % (bound_host, bound_port))
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
