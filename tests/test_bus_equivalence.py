"""E20 equivalence and resumability properties.

Three angles on the same contract:

* **Equivalence** — the bus push path must produce the *same*
  (value, shield-decision) sequence as per-update delivery for the
  same change schedule, including schedules with a mid-stream policy
  revocation. Coalescing changes the wire cost, never the semantics.
  Per-update delivery is :func:`per_update_model`, a closed form:
  every change before the revocation is delivered, every later one
  withheld.
* **Resumability** (Hypothesis) — for *any* interleaving of appends,
  listener crashes and restores, the replay cursors guarantee every
  record is delivered exactly once, in order: no loss, no duplicates.
* **Provisioner wiring** — enter-once storms ride the bus, so cache
  invalidation coalesces into per-wave sweeps instead of a
  per-update flood.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RequestContext
from repro.bus import (
    CacheInvalidationListener, ChangeBus, ChangeLog, RecordingListener,
)
from repro.core import SubscriptionHub
from repro.core.cache import ComponentCache
from repro.provisioning import Provisioner
from repro.simnet import Network, Simulator
from repro.workloads import build_converged_world


PRESENCE = "/user[@id='arnaud']/presence"
STATUS = "/user/presence/status"

#: Change times sit ≥ 500 ms away from the revocation instants below,
#: so wave delay (50 ms) plus hop latency can never reorder a check
#: across a policy change.
SCHEDULE = (
    (1_000, "busy"),
    (2_000, "away"),
    (3_000, "offline"),
    (4_000, "available"),
)


def family_ctx():
    return RequestContext("mom", relationship="family", purpose="query")


def make_hub():
    world = build_converged_world()
    hub = SubscriptionHub(
        world.sim, world.network, world.server, world.executor
    )
    return world, hub


def per_update_model(schedule, revoke_at=None):
    """Per-update delivery as a closed form: each change is checked
    against the shield on its own, so the values of the changes made
    before *revoke_at* are delivered in schedule order and every
    later change is withheld. Returns (values, withheld)."""
    values = [
        status for t, status in schedule
        if revoke_at is None or t < revoke_at
    ]
    return values, len(schedule) - len(values)


def run_bus(revoke_at=None):
    """:data:`SCHEDULE` through the hub's push path (the change bus).
    Returns (values delivered, withheld)."""
    world, hub = make_hub()
    hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
    world.presence.watch(
        "arnaud", lambda u, s, n: hub.note_change(STATUS, s, user_id=u)
    )
    _drive(world, hub, revoke_at)
    values = [d.value for d in hub.deliveries_for("push")]
    return values, hub.push_withheld


def _drive(world, hub, revoke_at):
    for t, status in SCHEDULE:
        world.sim.schedule(
            t, lambda s=status: world.presence.set_status("arnaud", s)
        )
    if revoke_at is not None:
        world.sim.schedule(
            revoke_at,
            lambda: world.server.revoke_policy(
                "arnaud", "arnaud-boss-family-presence"
            ),
        )
    world.sim.run(until=20_000)


class TestPushEquivalence:
    def test_values_equivalent_without_revocation(self):
        model = per_update_model(SCHEDULE)
        assert model == ([s for _, s in SCHEDULE], 0)
        assert run_bus() == model

    @pytest.mark.parametrize("revoke_at", [1_500, 2_500, 3_500])
    def test_decision_sequence_equivalent_under_revocation(
        self, revoke_at
    ):
        # Changes arrive in schedule order and the bus delivers in
        # order, so equal value sequences plus equal withheld counts
        # pin the *entire* (value, decision) sequence.
        model = per_update_model(SCHEDULE, revoke_at)
        assert 0 < model[1] < len(SCHEDULE)
        assert run_bus(revoke_at) == model

    def test_bus_loses_nothing_across_crash(self):
        # The bus's edge over per-update push: a crash window drops no
        # changes — the cursor holds until the node is back, then one
        # wave replays the whole backlog in order.
        world, hub = make_hub()
        hub.start_push("client-app", PRESENCE, STATUS, family_ctx())
        world.presence.watch(
            "arnaud",
            lambda u, s, n: hub.note_change(STATUS, s, user_id=u),
        )
        for t, status in SCHEDULE:
            world.sim.schedule(
                t,
                lambda s=status: world.presence.set_status("arnaud", s),
            )
        world.sim.schedule(1_500, lambda: world.network.fail("client-app"))
        world.sim.run(until=6_000)
        assert [d.value for d in hub.deliveries_for("push")] == ["busy"]
        world.network.restore("client-app")
        assert hub.bus.kick()
        world.sim.run(until=12_000)
        assert [d.value for d in hub.deliveries_for("push")] == [
            s for _, s in SCHEDULE
        ]


def _fresh_bus():
    sim = Simulator()
    network = Network()
    network.add_node("gupster", region="core")
    network.add_node("client-1", region="internet")
    bus = ChangeBus(sim, network, "gupster")
    listener = RecordingListener("rec", node="client-1")
    bus.attach(listener)
    return sim, network, bus, listener


class TestCursorProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        ops=st.lists(
            st.sampled_from(["append", "crash", "restore"]),
            min_size=1, max_size=25,
        )
    )
    def test_no_loss_no_dup_across_any_crash_schedule(self, ops):
        # Property: whatever the interleaving of appends, crashes and
        # restores, once the listener is finally up and kicked it has
        # received every appended record exactly once, in seq order.
        sim, network, bus, listener = _fresh_bus()
        appended = 0
        down = False
        for op in ops:
            if op == "append":
                appended += 1
                bus.append("/p", "v%d" % appended, user_id="u")
            elif op == "crash" and not down:
                network.fail("client-1")
                down = True
            elif op == "restore" and down:
                network.restore("client-1")
                down = False
                bus.kick()
            sim.run(until=sim.now + 500)
        if down:
            network.restore("client-1")
        bus.kick()
        sim.run(until=sim.now + 2_000)
        seqs = [record.seq for record in listener.received]
        assert seqs == list(range(1, appended + 1))
        values = [record.value for record in listener.received]
        assert values == ["v%d" % i for i in range(1, appended + 1)]

    @settings(deadline=None, max_examples=80)
    @given(n=st.integers(1, 40), data=st.data())
    def test_log_replay_is_exact_despite_compaction(self, n, data):
        # Property: since(cursor) returns exactly seqs cursor+1..last,
        # for any cursor and any compaction at or below it.
        log = ChangeLog("s")
        for i in range(1, n + 1):
            log.append(float(i), "/p", "v%d" % i)
        cursor = data.draw(st.integers(0, n))
        log.compact(data.draw(st.integers(0, cursor)))
        assert [r.seq for r in log.since(cursor)] == list(
            range(cursor + 1, n + 1)
        )
        assert log.backlog(cursor) == n - cursor


class TestProvisionerBus:
    def test_enter_once_rides_the_bus(self):
        world = build_converged_world()
        bus = ChangeBus(world.sim, world.network, "gupster")
        provisioner = Provisioner(
            world.server, world.executor, bus=bus
        )
        recorder = RecordingListener("rec", node="client-app")
        bus.attach(recorder)
        provisioner.enter_once(
            "client-app", "arnaud", "presence", [{"status": "busy"}]
        )
        world.sim.run(until=2_000)
        assert bus.appends == 1
        assert len(recorder.received) == 1
        record = recorder.received[0]
        assert record.path == "/user[@id='arnaud']/presence"
        assert record.user_id == "arnaud"

    def test_enter_once_storm_coalesces_invalidation(self):
        # An enter-once burst at t=0 lands in ONE wave: one cache
        # sweep over the distinct changed paths, not one invalidation
        # per update.
        world = build_converged_world()
        bus = ChangeBus(world.sim, world.network, "gupster")
        provisioner = Provisioner(
            world.server, world.executor, bus=bus
        )
        cache = ComponentCache(registry=world.network.metrics)
        sweeper = CacheInvalidationListener("cache-sweep", cache)
        bus.attach(sweeper)
        entries = [
            {
                "@id": "n1", "@type": "personal", "name": "Nadia",
                "number": "908-555-7777", "number.@type": "cell",
            }
        ]
        provisioner.enter_once(
            "client-app", "arnaud", "address-book", entries
        )
        provisioner.enter_once(
            "client-app", "arnaud", "presence", [{"status": "busy"}]
        )
        provisioner.enter_once(
            "client-app", "alice", "presence", [{"status": "away"}]
        )
        world.sim.run(until=2_000)
        assert bus.appends == 3
        assert bus.waves == 1
        assert sweeper.sweeps == 1
        assert sweeper.invalidated_paths == 3
