"""Unit tests for poll- vs push-based subscriptions (E12 machinery)."""

import pytest

from repro.errors import AccessDeniedError
from repro.access import RequestContext
from repro.core import SubscriptionHub
from repro.workloads import build_converged_world


PRESENCE = "/user[@id='arnaud']/presence"
STATUS = "/user/presence/status"


def make_hub():
    world = build_converged_world()
    hub = SubscriptionHub(
        world.sim, world.network, world.server, world.executor
    )
    return world, hub


def family_ctx(purpose="query"):
    return RequestContext("mom", relationship="family", purpose=purpose)


class TestPolling:
    def test_poll_detects_change(self):
        world, hub = make_hub()
        hub.start_polling(
            "client-app", PRESENCE, STATUS, family_ctx(),
            interval_ms=1000, until=10_000,
        )

        def change():
            hub.note_change(STATUS, "busy")
            world.presence.set_status("arnaud", "busy")

        world.sim.schedule(3_500, change)
        world.sim.run(until=10_000)
        deliveries = hub.deliveries_for("poll")
        assert len(deliveries) == 1
        assert deliveries[0].value == "busy"
        # Change at 3500 is seen by the 4000ms poll at the earliest.
        assert deliveries[0].latency_ms >= 500

    def test_every_poll_pays_a_policy_check(self):
        world, hub = make_hub()
        before = world.server.pep.enforced
        hub.start_polling(
            "client-app", PRESENCE, STATUS, family_ctx(),
            interval_ms=1000, until=5_000,
        )
        world.sim.run(until=5_000)
        assert world.server.pep.enforced - before == 5

    def test_denied_context_delivers_nothing(self):
        world, hub = make_hub()
        hub.start_polling(
            "client-app", PRESENCE, STATUS,
            RequestContext("telemarketer"),
            interval_ms=1000, until=5_000,
        )
        world.sim.schedule(
            2_500,
            lambda: world.presence.set_status("arnaud", "busy"),
        )
        world.sim.run(until=5_000)
        assert hub.deliveries == []

    def test_denied_poller_cancels_itself(self):
        # A denial is not transient: re-paying the fetch path every
        # tick for a guaranteed denial buys nothing, so the first
        # denied poll cancels the recurrence (and is counted).
        world, hub = make_hub()
        before = world.server.pep.enforced
        hub.start_polling(
            "client-app", PRESENCE, STATUS,
            RequestContext("telemarketer"),
            interval_ms=1000, until=10_000,
        )
        world.sim.run(until=10_000)
        assert hub.poll_denied == 1
        assert world.server.pep.enforced - before == 1

    def test_unlogged_change_has_unknown_latency(self):
        import math
        # The store mutates without note_change: the poller still
        # delivers the value, but the change instant is unknown — the
        # old code fabricated "changed just now" and recorded a
        # near-zero latency.
        world, hub = make_hub()
        hub.start_polling(
            "client-app", PRESENCE, STATUS, family_ctx(),
            interval_ms=1000, until=10_000,
        )
        world.sim.schedule(
            3_500, lambda: world.presence.set_status("arnaud", "busy")
        )
        world.sim.run(until=10_000)
        deliveries = hub.deliveries_for("poll")
        assert len(deliveries) == 1
        assert deliveries[0].changed_at is None
        assert math.isnan(deliveries[0].latency_ms)
        assert hub.latency_unknown == 1
        # The unknown-latency delivery must not poison the mean.
        assert math.isnan(hub.mean_latency("poll"))


def bridge(world, hub):
    # Publish the native presence notification on the change bus, the
    # way an E20 store publishes its writes.
    world.presence.watch(
        "arnaud",
        lambda u, s, n: hub.note_change(STATUS, s, user_id=u),
    )


class TestPush:
    def test_push_delivers_fast(self):
        world, hub = make_hub()
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        world.sim.schedule(
            3_500, lambda: world.presence.set_status("arnaud", "busy")
        )
        world.sim.run(until=10_000)
        deliveries = hub.deliveries_for("push")
        assert len(deliveries) == 1
        # One wave plus one hop, not half a polling interval.
        assert deliveries[0].latency_ms < 200

    def test_push_checks_shield_per_delivery(self):
        # One subscribe-time check plus one re-check per delivered
        # change — still far fewer than polling's one per tick, but
        # never a stale subscribe-time decision riding forever. The
        # changes sit more than one wave apart, so the wave memo
        # shares no decision between them.
        world, hub = make_hub()
        before = world.server.pep.enforced
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        for t in (1000, 2000, 3000):
            world.sim.schedule(
                t,
                lambda t=t: world.presence.set_status(
                    "arnaud", "busy" if t % 2000 else "away"
                ),
            )
        world.sim.run(until=5_000)
        delivered = len(hub.deliveries_for("push"))
        assert delivered == 3
        assert world.server.pep.enforced - before == 1 + delivered
        assert hub.push_withheld == 0

    def test_mean_latency_nan_when_empty(self):
        import math
        _world, hub = make_hub()
        assert math.isnan(hub.mean_latency("push"))


class TestBusPush:
    def test_bus_push_delivers_coalesced(self):
        world, hub = make_hub()
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        for t, status in ((1_000, "busy"), (1_010, "away")):
            world.sim.schedule(
                t,
                lambda s=status: world.presence.set_status("arnaud", s),
            )
        world.sim.run(until=5_000)
        deliveries = hub.deliveries_for("push")
        # Both changes land in ONE wave: one round trip, two deltas.
        assert [d.value for d in deliveries] == ["busy", "away"]
        assert hub.bus.waves == 1
        assert hub.bus.messages == 2
        for delivery in deliveries:
            assert delivery.changed_at is not None
            assert delivery.latency_ms > 0

    def test_bus_push_shield_checked_per_delivery(self):
        world, hub = make_hub()
        before = world.server.pep.enforced
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        for t, status in (
            (1_000, "busy"), (1_010, "away"), (2_000, "offline"),
        ):
            world.sim.schedule(
                t,
                lambda s=status: world.presence.set_status("arnaud", s),
            )
        world.sim.run(until=10_000)
        assert len(hub.deliveries_for("push")) == 3
        # 1 subscribe + one re-check per delivered delta; the wave
        # memo only collapses identical (path, requester) pairs, and
        # every delta here is a distinct delivery instant or wave.
        assert world.server.pep.enforced - before >= 1 + 2
        assert world.server.pep.enforced - before <= 1 + 3

    def test_bus_revocation_stops_next_wave(self):
        world, hub = make_hub()
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        world.sim.schedule(
            1_000, lambda: world.presence.set_status("arnaud", "busy")
        )
        world.sim.schedule(
            2_000,
            lambda: world.server.revoke_policy(
                "arnaud", "arnaud-boss-family-presence"
            ),
        )
        world.sim.schedule(
            3_000, lambda: world.presence.set_status("arnaud", "away")
        )
        world.sim.run(until=10_000)
        assert [d.value for d in hub.deliveries_for("push")] == ["busy"]
        assert hub.push_withheld == 1
        # The cursor advanced past the withheld record: it is not
        # retried on later waves.
        world.sim.schedule(
            0, lambda: world.presence.set_status("arnaud", "available")
        )
        world.sim.run(until=20_000)
        assert hub.push_withheld == 2

    def test_bus_subscription_denied(self):
        _world, hub = make_hub()
        with pytest.raises(AccessDeniedError):
            hub.start_push(
                "client-app", PRESENCE, STATUS,
                RequestContext("telemarketer"),
            )

    def test_bus_subscriber_crash_resumes_from_cursor(self):
        world, hub = make_hub()
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        bridge(world, hub)
        world.sim.schedule(
            1_000, lambda: world.presence.set_status("arnaud", "busy")
        )
        world.sim.schedule(
            2_000, lambda: world.network.fail("client-app")
        )
        world.sim.schedule(
            3_000, lambda: world.presence.set_status("arnaud", "away")
        )
        world.sim.schedule(
            4_000, lambda: world.presence.set_status("arnaud", "offline")
        )
        world.sim.run(until=6_000)
        assert [d.value for d in hub.deliveries_for("push")] == ["busy"]
        assert hub.bus.delivery_failures >= 1
        world.network.restore("client-app")
        assert hub.bus.kick()
        world.sim.run(until=10_000)
        # The backlog replays whole: nothing lost, nothing repeated.
        assert [d.value for d in hub.deliveries_for("push")] == [
            "busy", "away", "offline",
        ]
