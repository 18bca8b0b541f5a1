"""Unit tests for the change bus (E20): log, cursors, waves,
compaction, and the stock listeners."""

import pytest

from repro.bus import (
    CacheInvalidationListener,
    ChangeBus,
    ChangeLog,
    MirrorRefreshListener,
    RecordingListener,
    SubscriberListener,
)
from repro.errors import ResyncRequiredError
from repro.simnet import Network, Simulator
from repro.stores.sharded import ShardedStore

PATH = "/user[@id='u']/presence"


def make_world(clients=("client-1", "client-2")):
    sim = Simulator()
    network = Network()
    network.add_node("gupster")
    for client in clients:
        network.add_node(client, region="internet")
    bus = ChangeBus(sim, network, "gupster")
    return sim, network, bus


class TestChangeLog:
    def test_sequences_are_contiguous_from_one(self):
        log = ChangeLog("s0")
        records = [
            log.append(float(i), PATH, "v%d" % i) for i in range(5)
        ]
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert log.last_seq == 5
        assert log.head_seq == 1

    def test_since_is_a_slice_past_the_cursor(self):
        log = ChangeLog()
        for i in range(5):
            log.append(float(i), PATH, "v%d" % i)
        assert [r.seq for r in log.since(0)] == [1, 2, 3, 4, 5]
        assert [r.seq for r in log.since(3)] == [4, 5]
        assert log.since(5) == []
        assert log.since(99) == []

    def test_backlog_counts(self):
        log = ChangeLog()
        for i in range(4):
            log.append(0.0, PATH, "v%d" % i)
        assert log.backlog(0) == 4
        assert log.backlog(3) == 1
        assert log.backlog(4) == 0

    def test_changed_at_latest_and_sentinel(self):
        log = ChangeLog()
        log.append(10.0, PATH, "busy")
        log.append(20.0, PATH, "away")
        # The latest change is known exactly.
        assert log.changed_at(PATH, "away") == 20.0
        # A superseded value's instant is no longer known — never
        # fabricate one.
        assert log.changed_at(PATH, "busy") is None
        assert log.changed_at(PATH, "nope") is None
        assert log.changed_at("/other", "away") is None

    def test_compact_drops_consumed_prefix(self):
        log = ChangeLog()
        for i in range(6):
            log.append(float(i), PATH, "v%d" % i)
        dropped = log.compact(4)
        assert dropped == 4
        assert len(log) == 2
        assert log.head_seq == 5
        assert [r.seq for r in log.since(4)] == [5, 6]
        # Compaction below the head is a no-op.
        assert log.compact(2) == 0
        assert log.compacted_total == 4

    def test_cursor_below_the_compaction_floor_raises(self):
        # One contract for every change feed: a cursor the log was
        # compacted past gets a loud error, never the retained suffix
        # passed off as the whole backlog.
        log = ChangeLog()
        for i in range(6):
            log.append(float(i), PATH, "v%d" % i)
        log.compact(4)
        for stale in (0, 3):
            with pytest.raises(ResyncRequiredError):
                log.since(stale)
            with pytest.raises(ResyncRequiredError):
                log.backlog(stale)
        assert log.backlog(4) == 2

    def test_compact_keeps_latest_change_index(self):
        log = ChangeLog()
        log.append(10.0, PATH, "busy")
        log.append(20.0, PATH, "away")
        log.compact(2)
        assert len(log) == 0
        assert log.changed_at(PATH, "away") == 20.0


class TestChangeBus:
    def test_appends_coalesce_into_one_wave(self):
        sim, _network, bus = make_world()
        listener = RecordingListener("l1", node="client-1")
        bus.attach(listener)
        for i in range(10):
            sim.schedule(
                i * 4.0, lambda i=i: bus.append(PATH, "v%d" % i)
            )
        sim.run(until=1_000)
        assert [r.value for r in listener.received] == [
            "v%d" % i for i in range(10)
        ]
        assert bus.waves == 1
        # One round trip (request + ack) for the whole burst.
        assert bus.messages == 2
        assert bus.records_delivered == 10

    def test_attach_snapshots_cursor_at_head(self):
        sim, _network, bus = make_world()
        bus.append(PATH, "old")
        late = RecordingListener("late", node="client-1")
        bus.attach(late)
        sim.schedule(100, lambda: bus.append(PATH, "new"))
        sim.run(until=1_000)
        assert [r.value for r in late.received] == ["new"]

    def test_wants_filter_advances_cursor_without_wire(self):
        sim, _network, bus = make_world()

        class PickyListener(RecordingListener):
            def wants(self, record):
                return record.path == PATH

        picky = PickyListener("picky", node="client-1")
        bus.attach(picky)
        sim.schedule(0, lambda: bus.append("/user[@id='u']/book", "x"))
        sim.run(until=1_000)
        assert picky.received == []
        assert bus.messages == 0
        assert bus.pending_for(picky) == 0

    def test_in_process_listener_costs_no_wire(self):
        sim, _network, bus = make_world()
        local = RecordingListener("local")  # node=None
        bus.attach(local)
        sim.schedule(0, lambda: bus.append(PATH, "busy"))
        sim.run(until=1_000)
        assert [r.value for r in local.received] == ["busy"]
        assert bus.messages == 0
        assert bus.deliveries == 1

    def test_crash_holds_cursor_and_resume_replays_all(self):
        sim, network, bus = make_world()
        flaky = RecordingListener("flaky", node="client-1")
        steady = RecordingListener("steady", node="client-2")
        bus.attach(flaky)
        bus.attach(steady)
        sim.schedule(0, lambda: bus.append(PATH, "v1"))
        sim.schedule(200, lambda: network.fail("client-1"))
        sim.schedule(300, lambda: bus.append(PATH, "v2"))
        sim.schedule(400, lambda: bus.append(PATH, "v3"))
        sim.run(until=1_000)
        assert [r.value for r in flaky.received] == ["v1"]
        assert [r.value for r in steady.received] == ["v1", "v2", "v3"]
        assert bus.delivery_failures >= 1
        assert bus.pending_for(flaky) == 2
        network.restore("client-1")
        assert bus.kick() is True
        sim.run(until=2_000)
        # No loss, no duplication: every seq exactly once, in order.
        assert [(r.seq, r.value) for r in flaky.received] == [
            (1, "v1"), (2, "v2"), (3, "v3"),
        ]
        assert bus.kick() is False

    def test_fat_replay_is_never_overtaken_by_the_next_wave(self):
        # Regression (found by the E20 crash/resume bench gate): a
        # recovery wave carrying a large backlog transfers slowly at
        # simulated bandwidth; a small wave armed right after it must
        # not land first. Deliveries per listener are FIFO.
        sim, network, bus = make_world()
        listener = RecordingListener("l1", node="client-1")
        bus.attach(listener)
        network.fail("client-1")
        for index in range(2_000):
            bus.append(PATH, "x" * 200, user_id="u")
        sim.run(until=sim.now + 200)  # the armed wave fails to deliver
        assert bus.delivery_failures == 1
        network.restore("client-1")
        assert bus.kick() is True     # fat replay: ~540 KB in flight
        sim.schedule(
            60, lambda: bus.append(PATH, "tail", user_id="u")
        )                             # small wave right behind it
        sim.run()
        seqs = [record.seq for record in listener.received]
        assert seqs == list(range(1, 2_002))
        assert listener.received[-1].value == "tail"
        # And arrival instants are monotone: the channel is FIFO.
        assert listener.delivered_at == sorted(listener.delivered_at)

    def test_compaction_bounded_by_slowest_cursor(self):
        sim, network, bus = make_world()
        fast = RecordingListener("fast", node="client-1")
        slow = RecordingListener("slow", node="client-2")
        bus.attach(fast)
        bus.attach(slow)
        network.fail("client-2")
        for i in range(5):
            sim.schedule(i * 10.0, lambda i=i: bus.append(PATH, "v%d" % i))
        sim.run(until=1_000)
        # The failed listener pins the log: nothing may be compacted
        # past its cursor.
        assert bus._retained() == 5.0
        network.restore("client-2")
        bus.kick()
        sim.run(until=2_000)
        assert len(slow.received) == 5
        assert bus._retained() == 0.0
        assert bus.records_compacted == 5

    def test_no_listeners_keeps_only_the_index(self):
        sim, _network, bus = make_world()
        for i in range(100):
            bus.append(PATH, "v%d" % i)
        assert bus._retained() == 0.0
        assert bus.changed_at(PATH, "v99") == 0.0
        assert bus.changed_at(PATH, "v42") is None
        # No listener, no waves: the simulator stays idle.
        assert sim.pending == 0

    def test_double_attach_rejected(self):
        _sim, _network, bus = make_world()
        listener = RecordingListener("dup", node="client-1")
        bus.attach(listener)
        with pytest.raises(ValueError):
            bus.attach(RecordingListener("dup", node="client-2"))

    def test_detach_unpins_compaction(self):
        sim, network, bus = make_world()
        gone = RecordingListener("gone", node="client-1")
        bus.attach(gone)
        network.fail("client-1")
        sim.schedule(0, lambda: bus.append(PATH, "v1"))
        sim.run(until=1_000)
        assert bus._retained() == 1.0
        bus.detach(gone)
        sim.schedule(0, lambda: bus.append(PATH, "v2"))
        sim.run(until=2_000)
        assert bus._retained() == 0.0

    def test_counters_live_in_shared_registry(self):
        sim, network, bus = make_world()
        listener = RecordingListener("l1", node="client-1")
        bus.attach(listener)
        sim.schedule(0, lambda: bus.append(PATH, "busy"))
        sim.run(until=1_000)
        snapshot = network.metrics.snapshot()
        assert snapshot["counters"]["bus.appends"] == 1
        assert snapshot["counters"]["bus.waves"] == 1
        assert snapshot["counters"]["bus.messages"] == 2
        assert snapshot["gauges"]["bus.backlog"] == 0.0


class TestSharding:
    def test_sharded_store_routes_appends_per_shard(self):
        sim = Simulator()
        network = Network()
        network.add_node("gupster")
        network.add_node("client-1", region="internet")
        bus = ChangeBus(sim, network, "gupster")
        store = ShardedStore("gupshard", 4, network=network)
        store.bind_bus(bus)
        listener = RecordingListener("l1", node="client-1")
        bus.attach(listener)
        users = ["user-%03d" % i for i in range(40)]
        for i, user in enumerate(users):
            sim.schedule(
                i * 1.0,
                lambda u=user: bus.append(
                    "/user[@id='%s']/presence" % u, "busy", user_id=u
                ),
            )
        sim.run(until=10_000)
        # Every append landed in its owner's shard log...
        shards_used = {r.shard for r in listener.received}
        assert len(shards_used) > 1
        assert shards_used <= set(store.shards)
        for record in listener.received:
            assert store.shard_for(record.user_id) == record.shard
        # ...and nothing was lost or duplicated across shards.
        assert sorted(r.user_id for r in listener.received) == users

    def test_per_shard_sequences_are_independent(self):
        sim, _network, bus = make_world()
        bus.use_shard_router(lambda uid: "s-" + uid[-1], ["s-a", "s-b"])
        bus.append(PATH, "v1", user_id="xa")
        bus.append(PATH, "v2", user_id="xb")
        bus.append(PATH, "v3", user_id="xa")
        assert bus.log_for("s-a").last_seq == 2
        assert bus.log_for("s-b").last_seq == 1


class FakeCache:
    def __init__(self):
        self.invalidated = []

    def invalidate(self, path):
        self.invalidated.append(str(path))
        return 1


class FakeConstellation:
    def __init__(self):
        self.rounds = 0

    def replicate(self):
        self.rounds += 1
        return 3


class CountingPep:
    def __init__(self, permit=True):
        self.permit = permit
        self.enforced = 0

    def enforce(self, request, context):
        from repro.access import Decision
        self.enforced += 1
        return Decision(self.permit, [], ["fake"])


class TestListeners:
    def test_cache_invalidation_coalesces_distinct_paths(self):
        sim, _network, bus = make_world()
        cache = FakeCache()
        bus.attach(CacheInvalidationListener("inval", cache))
        listener = bus.listeners[0]
        for i in range(6):
            sim.schedule(
                i * 1.0,
                lambda i=i: bus.append(
                    PATH if i % 2 else "/user[@id='u']/book", "v%d" % i
                ),
            )
        sim.run(until=1_000)
        # Six records, two distinct paths, one wave: two invalidations.
        assert len(cache.invalidated) == 2
        assert listener.sweeps == 1
        assert listener.coalesced == 4

    def test_mirror_refresh_once_per_wave(self):
        sim, _network, bus = make_world()
        constellation = FakeConstellation()
        refresh = MirrorRefreshListener("gossip", constellation)
        bus.attach(refresh)
        for i in range(8):
            sim.schedule(i * 2.0, lambda i=i: bus.append(PATH, "v%d" % i))
        sim.run(until=1_000)
        assert constellation.rounds == 1
        assert refresh.replicated == 3

    def test_subscriber_memoizes_only_within_a_wave(self):
        from repro.access import RequestContext
        sim, _network, bus = make_world()
        pep = CountingPep()
        delivered = []
        listener = SubscriberListener(
            "sub", "client-1", pep,
            request=PATH, watch_path=PATH,
            context=RequestContext("mom", relationship="family"),
            on_delivery=lambda record, now: delivered.append(record.value),
        )
        bus.attach(listener)
        # Three deltas in one wave: one enforce, memo covers the rest.
        for i in range(3):
            sim.schedule(i * 1.0, lambda i=i: bus.append(PATH, "v%d" % i))
        sim.run(until=1_000)
        assert delivered == ["v0", "v1", "v2"]
        assert pep.enforced == 1
        # A later wave must re-check: the memo died with its wave.
        sim.schedule(0, lambda: bus.append(PATH, "v3"))
        sim.run(until=2_000)
        assert pep.enforced == 2

    def test_subscriber_withholds_on_denial(self):
        from repro.access import RequestContext
        sim, _network, bus = make_world()
        pep = CountingPep(permit=False)
        delivered, withheld = [], []
        listener = SubscriberListener(
            "sub", "client-1", pep,
            request=PATH, watch_path=PATH,
            context=RequestContext("stranger"),
            on_delivery=lambda record, now: delivered.append(record.value),
            on_withheld=lambda record: withheld.append(record.value),
        )
        bus.attach(listener)
        sim.schedule(0, lambda: bus.append(PATH, "secret"))
        sim.run(until=1_000)
        assert delivered == []
        assert withheld == ["secret"]
        assert listener.withheld == 1
        # Withheld records are consumed, not retried.
        assert bus.pending_for(listener) == 0
