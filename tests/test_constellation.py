"""Unit tests for the mirrored GUPster constellation with real
asynchronous replication (Section 4.2)."""

import pytest

from repro.access import RequestContext
from repro.core import GupsterServer, MirrorConstellation
from repro.core.coverage import CoverageMap
from repro.errors import (
    GupsterError, NoCoverageError, ResyncRequiredError,
)
from repro.simnet import Network
from repro.workloads import SyntheticAdapter


PRESENCE = "/user[@id='u1']/presence"


def ctx():
    return RequestContext("app", relationship="third-party")


def build(n_mirrors=3):
    network = Network(seed=21)
    network.add_node("client", region="internet")
    mirrors = ["mdm.%d" % index for index in range(n_mirrors)]
    for mirror in mirrors:
        network.add_node(mirror, region="core")
    constellation = MirrorConstellation(network, mirrors)
    store = SyntheticAdapter("gup.store.com")
    network.add_node("gup.store.com", region="internet")
    store.add_user("u1", ["presence", "address-book"])
    return network, constellation, store


class TestReplication:
    def test_registration_visible_at_home_mirror_immediately(self):
        _network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        referral, _trace, used = constellation.resolve(
            "client", PRESENCE, ctx(), prefer="mdm.0"
        )
        assert referral.parts and used == "mdm.0"

    def test_other_mirrors_stale_until_replication(self):
        _network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        assert constellation.stale_mirrors(PRESENCE) == [
            "mdm.1", "mdm.2",
        ]
        with pytest.raises(NoCoverageError):
            constellation.resolve(
                "client", PRESENCE, ctx(), prefer="mdm.1"
            )
        constellation.replicate()
        assert constellation.stale_mirrors(PRESENCE) == []
        referral, _trace, used = constellation.resolve(
            "client", PRESENCE, ctx(), prefer="mdm.1"
        )
        assert referral.parts and used == "mdm.1"

    def test_replication_converges_all_mirrors(self):
        _network, constellation, store = build(n_mirrors=4)
        constellation.join_store(store, via="mdm.2")
        assert not constellation.consistent()
        constellation.replicate()
        assert constellation.consistent()

    def test_replication_idempotent(self):
        _network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        first = constellation.replicate()
        second = constellation.replicate()
        assert first > 0
        assert second == 0  # nothing new to ship

    def test_writes_at_different_mirrors_merge(self):
        _network, constellation, store = build()
        other = SyntheticAdapter("gup.other.com")
        other.add_user("u1", ["presence"])
        constellation.join_store(store, via="mdm.0")
        constellation.join_store(other, via="mdm.1")
        constellation.replicate()
        # An echo round may be needed for entries learned second-hand.
        constellation.replicate()
        assert constellation.consistent()
        referral, _trace, _used = constellation.resolve(
            "client", PRESENCE, ctx(), prefer="mdm.2"
        )
        stores = referral.parts[0].store_ids
        assert sorted(stores) == ["gup.other.com", "gup.store.com"]

    def test_unregistration_propagates(self):
        _network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        constellation.replicate()
        constellation.servers["mdm.0"].coverage.unregister(
            PRESENCE, "gup.store.com"
        )
        constellation.replicate()
        constellation.replicate()  # settle echoes
        for mirror in constellation.mirror_nodes:
            resolution = constellation.servers[
                mirror
            ].coverage.resolve(PRESENCE)
            assert not resolution.is_covered, mirror

    def test_replication_traffic_accounted(self):
        network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        trace = network.trace()
        constellation.replicate(trace)
        assert trace.bytes_total > 0
        assert constellation.replication_messages > 0
        assert constellation.replication_bytes == trace.bytes_total

    def test_mirror_behind_the_feed_window_resyncs_full_state(self):
        # Ten registrations and an unregister land at mdm.0 before the
        # first round; its feed keeps four entries, so mdm.1's mark
        # (0) is below the floor. The round must fall back to a
        # full-state transfer — not raise on this and every later one.
        network = Network(seed=21)
        mirrors = ["mdm.0", "mdm.1"]
        for mirror in mirrors:
            network.add_node(mirror, region="core")
        constellation = MirrorConstellation(
            network, mirrors,
            make_server=lambda name: GupsterServer(
                name, enforce_policies=False,
                coverage=CoverageMap(max_changelog=4),
            ),
        )
        paths = ["/user[@id='u%d']/presence" % i for i in range(10)]
        for path in paths:
            constellation.register_component(path, "s", via="mdm.0")
        source = constellation.server_at("mdm.0").coverage
        source.unregister(paths[3], "s")
        with pytest.raises(ResyncRequiredError):
            source.changes_since(0)

        trace = network.trace()
        assert constellation.replicate(trace) == 9
        assert constellation.consistent()
        target = constellation.server_at("mdm.1").coverage
        assert target.stores_for(paths[3]) == []
        assert target.entry_count() == 9
        # mdm.0 -> mdm.1 ships the 9 live registrations; mdm.1's own
        # four-entry feed is equally behind for mdm.0, so the echo is
        # a second full-state transfer that applies nothing.
        assert constellation.replication_messages == 2
        assert trace.bytes_total == 2 * 9 * 96
        assert constellation.replicate() == 0
        assert constellation.replication_messages == 2  # nothing shipped

    def test_full_state_resync_drops_what_the_source_unlisted(self):
        network = Network(seed=21)
        mirrors = ["mdm.0", "mdm.1"]
        for mirror in mirrors:
            network.add_node(mirror, region="core")
        constellation = MirrorConstellation(
            network, mirrors,
            make_server=lambda name: GupsterServer(
                name, enforce_policies=False,
                coverage=CoverageMap(max_changelog=2),
            ),
        )
        first = "/user[@id='u0']/presence"
        constellation.register_component(first, "s", via="mdm.0")
        constellation.register_component(first, "local", via="mdm.1")
        constellation.replicate()
        constellation.replicate()
        assert constellation.consistent()
        # The unregister of `first` falls out of mdm.0's window.
        source = constellation.server_at("mdm.0").coverage
        source.unregister(first, "s")
        for i in range(1, 4):
            source.register("/user[@id='u%d']/presence" % i, "s")
        constellation.replicate()
        constellation.replicate()
        assert constellation.consistent()
        target = constellation.server_at("mdm.1").coverage
        assert target.stores_for(first) == ["local"]

    def test_full_state_resync_drops_a_store_the_source_forgot(self):
        # s2's only registration is unregistered at its home mirror
        # and the unregister falls out of the feed window, so mdm.0
        # no longer lists s2 at all. The full-state transfer must
        # still take s2 off mdm.1: it replaces mdm.1's view of the
        # stores that registered through mdm.0.
        network = Network(seed=21)
        mirrors = ["mdm.0", "mdm.1"]
        for mirror in mirrors:
            network.add_node(mirror, region="core")
        constellation = MirrorConstellation(
            network, mirrors,
            make_server=lambda name: GupsterServer(
                name, enforce_policies=False,
                coverage=CoverageMap(max_changelog=2),
            ),
        )
        gone = "/user[@id='u0']/presence"
        constellation.register_component(gone, "s2", via="mdm.0")
        constellation.register_component(gone, "local", via="mdm.1")
        constellation.replicate()
        constellation.replicate()
        target = constellation.server_at("mdm.1").coverage
        assert target.stores_for(gone) == ["local", "s2"]
        source = constellation.server_at("mdm.0").coverage
        seen = source.revision
        source.unregister(gone, "s2")
        for i in range(1, 4):
            source.register("/user[@id='u%d']/presence" % i, "s")
        with pytest.raises(ResyncRequiredError):
            source.changes_since(seen)
        constellation.replicate()
        constellation.replicate()
        assert constellation.consistent()
        assert target.stores_for(gone) == ["local"]


class TestReads:
    def test_failover_read(self):
        network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        constellation.replicate()
        network.fail("mdm.0")
        referral, trace, used = constellation.resolve(
            "client", PRESENCE, ctx(), prefer="mdm.0"
        )
        assert used != "mdm.0"
        assert trace.elapsed_ms > network.detect_timeout_ms

    def test_lost_message_fails_over_like_a_dead_mirror(self):
        network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        constellation.replicate()
        network.force_drops("client", "mdm.1", 1)
        referral, trace, used = constellation.resolve(
            "client", PRESENCE, ctx(), prefer="mdm.1"
        )
        assert referral.parts and used == "mdm.0"
        assert trace.timeouts_charged == 1

    def test_all_mirrors_down(self):
        network, constellation, store = build()
        constellation.join_store(store, via="mdm.0")
        for mirror in constellation.mirror_nodes:
            network.fail(mirror)
        with pytest.raises(GupsterError):
            constellation.resolve("client", PRESENCE, ctx())

    def test_needs_one_mirror(self):
        with pytest.raises(ValueError):
            MirrorConstellation(Network(seed=1), [])
