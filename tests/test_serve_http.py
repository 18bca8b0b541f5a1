"""The asyncio serving layer: HTTP parsing, the app surface, admission
control, the wall transport under faults, wall spans, background
jobs. All async paths run through ``asyncio.run`` inside sync tests
(the container ships no pytest-asyncio)."""

import asyncio
import json

import pytest

from repro.access import PolicyRule, relationship_in
from repro.errors import NodeUnreachableError, PacketLossError
from repro.obs import SpanRecorder
from repro.obs.wallclock import ManualClock, WallSpanScope
from repro.pxml import parse
from repro.sansio import Compute, Fork, Send, SpanClose, SpanOpen
from repro.serve import (
    AdmissionGate,
    AdmissionRejected,
    AppServer,
    Request,
    RequestPipeline,
    Response,
    WallTransport,
    build_demo_world,
    create_app,
)
from repro.serve.http import (
    HttpProtocolError,
    read_request,
    write_response,
)
from repro.simnet import FaultState

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"

PROVISION_HEADERS = {
    "x-requester": "u1",
    "x-relationship": "self",
    "x-purpose": "provision",
}


def run(coro):
    return asyncio.run(coro)


def get_json(response):
    assert response.headers["content-type"] == "application/json"
    return json.loads(response.body)


# ---------------------------------------------------------------------------
# Wire parsing
# ---------------------------------------------------------------------------

def parse_bytes(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return run(go())


class TestHttpParsing:
    def test_request_line_params_and_headers(self):
        request = parse_bytes(
            b"GET /v1/query?path=/a&pattern=cached HTTP/1.1\r\n"
            b"Host: x\r\nX-Requester: app\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/query"
        assert request.params == {"path": "/a", "pattern": "cached"}
        assert request.headers["x-requester"] == "app"

    def test_percent_decoding(self):
        request = parse_bytes(
            b"GET /v1/query?path=/user[@id=%27u1%27] HTTP/1.1\r\n\r\n"
        )
        assert request.params["path"] == "/user[@id='u1']"

    def test_body_by_content_length(self):
        request = parse_bytes(
            b"POST /v1/provision HTTP/1.1\r\n"
            b"Content-Length: 4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"

    def test_closed_before_any_bytes_is_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpProtocolError):
            parse_bytes(b"NONSENSE\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(HttpProtocolError):
            parse_bytes(
                b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n"
            )

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            parse_bytes(
                b"POST / HTTP/1.1\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
        assert excinfo.value.status == 413

    def test_truncated_body(self):
        with pytest.raises(HttpProtocolError):
            parse_bytes(
                b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
            )

    def test_write_response_shape(self):
        async def go():
            reader = asyncio.StreamReader()

            class _Writer:
                def __init__(self):
                    self.chunks = []
                def write(self, data):
                    self.chunks.append(data)
                async def drain(self):
                    pass

            writer = _Writer()
            await write_response(writer, Response.json({"ok": True}))
            return b"".join(writer.chunks), reader
        raw, _ = run(go())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"connection: close" in head
        assert b"content-length: %d" % len(body) in head
        assert json.loads(body) == {"ok": True}


# ---------------------------------------------------------------------------
# The app, socket-free
# ---------------------------------------------------------------------------

class TestAppRoutes:
    def test_healthz(self):
        app = create_app()
        response = run(app.handle(Request("GET", "/healthz")))
        payload = get_json(response)
        assert payload["ok"] is True
        assert "gup.alpha.com" in payload["stores"]

    def test_unknown_route_is_404(self):
        app = create_app()
        response = run(app.handle(Request("GET", "/nope")))
        assert response.status == 404

    def test_chaining_query(self):
        app = create_app()
        response = run(app.handle(Request(
            "GET", "/v1/query", params={"path": BOOK},
        )))
        payload = get_json(response)
        assert response.status == 200
        assert "<address-book" in payload["fragment"]
        assert payload["degraded_parts"] == []

    def test_missing_path_param_is_400(self):
        app = create_app()
        response = run(app.handle(Request("GET", "/v1/query")))
        assert response.status == 400

    def test_unknown_pattern_is_400(self):
        app = create_app()
        response = run(app.handle(Request(
            "GET", "/v1/query",
            params={"path": BOOK, "pattern": "telepathy"},
        )))
        assert response.status == 400

    def test_cached_pattern_hits_second_time(self):
        app = create_app()
        async def go():
            first = await app.handle(Request(
                "GET", "/v1/query",
                params={"path": BOOK, "pattern": "cached"},
            ))
            second = await app.handle(Request(
                "GET", "/v1/query",
                params={"path": BOOK, "pattern": "cached"},
            ))
            return first, second
        first, second = run(go())
        assert not get_json(first)["cache_hit"]
        assert get_json(second)["cache_hit"]

    def test_every_response_carries_request_id(self):
        app = create_app()
        response = run(app.handle(Request("GET", "/healthz")))
        assert response.headers["x-request-id"].isdigit()

    def test_provision_then_read_back(self):
        app = create_app()
        fragment = (
            "<address-book><item type='personal'>"
            "<entry name='serve-test'><phone number='1'/></entry>"
            "</item><item type='corporate'>"
            "<entry name='corp'><phone number='2'/></entry>"
            "</item></address-book>"
        )
        async def go():
            wrote = await app.handle(Request(
                "POST", "/v1/provision", headers=PROVISION_HEADERS,
                body=json.dumps(
                    {"path": BOOK, "fragment": fragment}
                ).encode(),
            ))
            read = await app.handle(Request(
                "GET", "/v1/query", params={"path": BOOK},
            ))
            return wrote, read
        wrote, read = run(go())
        assert wrote.status == 201
        assert "serve-test" in get_json(read)["fragment"]

    def test_provision_without_context_is_403(self):
        app = create_app()
        response = run(app.handle(Request(
            "POST", "/v1/provision",
            body=json.dumps(
                {"path": BOOK, "fragment": "<address-book/>"}
            ).encode(),
        )))
        assert response.status == 403
        assert get_json(response)["error"] == "access-denied"

    def test_provision_bad_json_is_4xx_not_traceback(self):
        app = create_app()
        response = run(app.handle(Request(
            "POST", "/v1/provision", headers=PROVISION_HEADERS,
            body=b"this is not json",
        )))
        assert 400 <= response.status < 500
        assert b"Traceback" not in response.body

    def test_subscription_lifecycle(self):
        app = create_app()
        fragment = (
            "<address-book><item type='personal'>"
            "<entry name='sub'><phone number='3'/></entry></item>"
            "</address-book>"
        )
        async def go():
            created = await app.handle(Request(
                "POST", "/v1/subscriptions",
                body=json.dumps({"watch_path": BOOK}).encode(),
            ))
            sub_id = get_json(created)["id"]
            await app.handle(Request(
                "POST", "/v1/provision", headers=PROVISION_HEADERS,
                body=json.dumps(
                    {"path": BOOK, "fragment": fragment}
                ).encode(),
            ))
            app.jobs.drain_bus_once()
            polled = await app.handle(Request(
                "GET", "/v1/subscriptions/%d" % sub_id,
            ))
            cancelled = await app.handle(Request(
                "DELETE", "/v1/subscriptions/%d" % sub_id,
            ))
            gone = await app.handle(Request(
                "GET", "/v1/subscriptions/%d" % sub_id,
            ))
            return created, polled, cancelled, gone
        created, polled, cancelled, gone = run(go())
        assert created.status == 201
        deliveries = get_json(polled)["deliveries"]
        assert len(deliveries) == 1
        assert deliveries[0]["path"] == BOOK
        assert get_json(cancelled)["cancelled"] is True
        assert gone.status == 404

    def test_subscriptions_hold_the_privacy_shield(self):
        """On a policy-enforcing world the route is shielded like every
        other egress: denied at subscribe, re-checked per delivery."""
        world = build_demo_world()
        server = world.server
        server.enforce_policies = True
        rules = server.policy_repository
        rules.store(PolicyRule(
            "u1", BOOK, "permit", relationship_in("family"),
            rule_id="family-book",
        ))
        app = create_app(world=world)
        family = {"x-requester": "mom", "x-relationship": "family"}
        subscribe = json.dumps({"watch_path": BOOK}).encode()

        def fragment(name):
            return (
                "<address-book><item type='personal'><entry name='%s'>"
                "<phone number='3'/></entry></item></address-book>"
                % name
            )

        async def write(name):
            response = await app.handle(Request(
                "POST", "/v1/provision", headers=PROVISION_HEADERS,
                body=json.dumps(
                    {"path": BOOK, "fragment": fragment(name)}
                ).encode(),
            ))
            assert response.status == 201
            app.jobs.drain_bus_once()

        async def go():
            stranger = await app.handle(Request(
                "POST", "/v1/subscriptions", body=subscribe,
                headers={"x-requester": "eve"},
            ))
            created = await app.handle(Request(
                "POST", "/v1/subscriptions", body=subscribe,
                headers=family,
            ))
            poll = Request(
                "GET",
                "/v1/subscriptions/%d" % get_json(created)["id"],
            )
            await write("before")
            first = await app.handle(poll)
            rules.remove("u1", "family-book")
            await write("after")
            second = await app.handle(poll)
            return stranger, first, second

        stranger, first, second = run(go())
        assert stranger.status == 403
        assert get_json(stranger)["error"] == "access-denied"
        assert app.subscriptions.active_count() == 1
        assert len(world.bus.listeners) == 2  # the cache + mom
        first, second = get_json(first), get_json(second)
        assert [d["value"] for d in first["deliveries"]] == [
            parse(fragment("before")).serialize()
        ]
        assert first["withheld"] == 0
        assert second["deliveries"] == []
        assert second["withheld"] == 1
        assert b"after" not in json.dumps(second).encode()

    def test_metrics_endpoint_prometheus_text(self):
        app = create_app()
        async def go():
            await app.handle(Request(
                "GET", "/v1/query", params={"path": BOOK},
            ))
            return await app.handle(Request("GET", "/metrics"))
        response = run(go())
        text = response.body.decode()
        assert "serve_requests" in text
        assert "server_resolves" in text

    def test_failed_store_degrades_not_500(self):
        faults = FaultState()
        faults.fail("gup.corp.com")
        app = create_app(world=build_demo_world(faults=faults))
        response = run(app.handle(Request(
            "GET", "/v1/query", params={"path": BOOK},
        )))
        payload = get_json(response)
        assert response.status == 200
        assert payload["degraded_parts"] == [
            BOOK + "/item[@type='corporate']"
        ]

    def test_all_stores_down_is_503(self):
        faults = FaultState()
        for store in (
            "gup.alpha.com", "gup.beta.com", "gup.corp.com",
        ):
            faults.fail(store)
        app = create_app(world=build_demo_world(faults=faults))
        response = run(app.handle(Request(
            "GET", "/v1/query", params={"path": BOOK},
        )))
        assert response.status == 503
        assert get_json(response)["error"] == "all-parts-failed"


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_rejects_beyond_queue(self):
        async def go():
            gate = AdmissionGate(max_inflight=1, max_queued=0)
            release = asyncio.Event()

            async def occupant():
                async with gate:
                    await release.wait()

            task = asyncio.ensure_future(occupant())
            await asyncio.sleep(0)  # occupant takes the slot
            with pytest.raises(AdmissionRejected):
                await gate.acquire()
            release.set()
            await task
            # Slot free again: admission works.
            await gate.acquire()
            gate.release()
            return gate
        gate = run(go())
        assert gate.metrics.counter("serve.rejected").value == 1
        assert gate.metrics.counter("serve.admitted").value == 2

    def test_queue_admits_when_slot_frees(self):
        async def go():
            gate = AdmissionGate(max_inflight=1, max_queued=4)
            release = asyncio.Event()
            order = []

            async def occupant():
                async with gate:
                    order.append("first")
                    await release.wait()

            async def waiter():
                async with gate:
                    order.append("second")

            first = asyncio.ensure_future(occupant())
            await asyncio.sleep(0)
            second = asyncio.ensure_future(waiter())
            await asyncio.sleep(0)
            assert gate.queued == 1
            release.set()
            await asyncio.gather(first, second)
            return order
        assert run(go()) == ["first", "second"]

    def test_shed_request_gets_503_with_retry_after(self):
        async def go():
            gate = AdmissionGate(
                max_inflight=1, max_queued=0, retry_after_s=7.0
            )
            pipeline = RequestPipeline(gate=gate)
            release = asyncio.Event()

            async def slow_handler(request):
                await release.wait()
                return Response.json({"ok": True})

            handler = pipeline.wrap(slow_handler)
            first = asyncio.ensure_future(
                handler(Request("GET", "/slow"))
            )
            await asyncio.sleep(0)
            shed = await handler(Request("GET", "/slow"))
            release.set()
            served = await first
            return shed, served
        shed, served = run(go())
        assert shed.status == 503
        assert shed.headers["retry-after"] == "7"
        assert served.status == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queued=-1)


# ---------------------------------------------------------------------------
# WallTransport under a FaultState
# ---------------------------------------------------------------------------

class TestWallTransportFaults:
    def _run_program(self, program, faults=None):
        transport = WallTransport({}, faults=faults)
        return run(transport.run(program))

    def test_source_down_raises_immediately(self):
        faults = FaultState()
        faults.fail("a")
        def program():
            yield Send("a", "b", 10, "x")
        with pytest.raises(NodeUnreachableError, match="source 'a'"):
            self._run_program(program(), faults)

    def test_target_down_message(self):
        faults = FaultState()
        faults.fail("b")
        def program():
            yield Send("a", "b", 10, "x")
        with pytest.raises(NodeUnreachableError, match="node 'b'"):
            self._run_program(program(), faults)

    def test_forced_drop_budget_shared_both_directions(self):
        faults = FaultState()
        faults.force_drops("a", "b", 1)
        seen = []
        def program():
            try:
                yield Send("b", "a", 10, "reverse direction")
            except PacketLossError as err:
                seen.append(err)
            # Budget consumed: the retry sails through.
            yield Send("a", "b", 10, "retry")
            return "ok"
        assert self._run_program(program(), faults) == "ok"
        assert len(seen) == 1

    def test_fork_runs_all_legs_and_captures(self):
        faults = FaultState()
        faults.fail("store-2")
        def leg(store):
            yield Send("server", store, 10, "probe")
            return store
        def program():
            outcomes = yield Fork(
                [leg("store-1"), leg("store-2"), leg("store-3")],
                capture=(NodeUnreachableError,),
            )
            return outcomes
        outcomes = self._run_program(program(), faults)
        assert outcomes[0].value == "store-1"
        assert isinstance(outcomes[1].error, NodeUnreachableError)
        assert outcomes[2].value == "store-3"

    def test_restore_heals(self):
        faults = FaultState()
        faults.fail("b")
        faults.restore("b")
        def program():
            yield Send("a", "b", 10, "x")
            return "ok"
        assert self._run_program(program(), faults) == "ok"

    def test_marks_feed_metrics(self):
        from repro.sansio import Mark
        transport = WallTransport({})
        def program():
            yield Mark("retry")
            yield Mark("failover")
            yield Mark("degraded", 3)
            yield Mark("degraded_item", 2)
        run(transport.run(program()))
        assert transport.metrics.counter("serve.retries").value == 1
        assert transport.metrics.counter("serve.failovers").value == 1
        # One degraded *response* per query or batched item, whatever
        # the part count.
        assert transport.metrics.counter(
            "serve.degraded_responses"
        ).value == 2


# ---------------------------------------------------------------------------
# Wall spans
# ---------------------------------------------------------------------------

class TestWallSpans:
    def test_nesting_and_timestamps(self):
        recorder = SpanRecorder()
        clock = ManualClock()
        scope = WallSpanScope(recorder, clock)
        outer = scope.open("outer")
        clock.advance(5.0)
        inner = scope.open("inner")
        clock.advance(2.0)
        scope.close()
        scope.close()
        assert inner.parent_id == outer.span_id
        assert outer.duration_ms == 7.0
        assert inner.start_ms == 5.0
        assert recorder.open_spans() == []

    def test_fork_child_never_closes_parent(self):
        recorder = SpanRecorder()
        clock = ManualClock()
        scope = WallSpanScope(recorder, clock)
        parent = scope.open("request")
        child = scope.fork_child()
        leg = child.open("leg")
        assert leg.parent_id == parent.span_id
        assert leg.tid != parent.tid
        child.unwind()          # closes the leg...
        assert leg.finished
        assert not parent.finished  # ...but never the borrowed parent
        scope.close()
        assert parent.finished

    def test_driver_unwinds_wall_spans_on_error(self):
        recorder = SpanRecorder()
        transport = WallTransport({}, recorder=recorder)
        def program():
            yield SpanOpen("outer")
            yield SpanOpen("inner")
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            run(transport.run(program()))
        assert recorder.open_spans() == []

    def test_span_close_balances(self):
        recorder = SpanRecorder()
        transport = WallTransport({}, recorder=recorder)
        def program():
            yield SpanOpen("a")
            yield Compute(1.0, "work")
            yield SpanClose()
            return "ok"
        assert run(transport.run(program())) == "ok"
        assert len(recorder.spans) == 1
        assert recorder.spans[0].finished

    def test_manual_clock_rejects_reverse(self):
        clock = ManualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


# ---------------------------------------------------------------------------
# Background jobs
# ---------------------------------------------------------------------------

class TestBackgroundJobs:
    def test_cache_sweep_drops_expired(self):
        app = create_app(world=build_demo_world(
            ttl_ms=0.0, stale_grace_ms=0.0, with_bus=False,
        ))
        async def go():
            await app.handle(Request(
                "GET", "/v1/query",
                params={"path": BOOK, "pattern": "cached"},
            ))
            return app.jobs.sweep_cache_once()
        # A TTL-0 entry is stored but never served; the sweep is what
        # reclaims it once past TTL + grace.
        assert run(go()) == 1

    def test_jobs_start_stop(self):
        app = create_app()
        async def go():
            app.jobs.start()
            stats = app.jobs.stats()
            await app.jobs.stop()
            return stats, app.jobs.stats()
        running, stopped = run(go())
        assert set(running["running"]) == {
            "serve-bus-drain", "serve-cache-sweep",
        }
        assert stopped["running"] == []
        assert stopped["failed"] == []


# ---------------------------------------------------------------------------
# Real sockets
# ---------------------------------------------------------------------------

class TestOverRealSockets:
    def test_query_over_loopback(self):
        import urllib.request

        async def go():
            server = AppServer(create_app(), port=0)
            host, port = await server.start()

            def fetch(path):
                url = "http://%s:%d%s" % (host, port, path)
                with urllib.request.urlopen(url, timeout=5) as resp:
                    return resp.status, resp.read()

            loop = asyncio.get_running_loop()
            health = await loop.run_in_executor(
                None, fetch, "/healthz"
            )
            query = await loop.run_in_executor(
                None, fetch,
                "/v1/query?path=" + urllib.parse.quote(BOOK),
            )
            await server.stop()
            return health, query

        (h_status, h_body), (q_status, q_body) = run(go())
        assert h_status == 200
        assert json.loads(h_body)["ok"] is True
        assert q_status == 200
        assert "<address-book" in json.loads(q_body)["fragment"]
