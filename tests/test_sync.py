"""Unit tests for synchronization: endpoints, fast/slow sync,
reconciliation policies (requirements 6/7, experiment E8 machinery)."""

import pytest

from repro.errors import SyncError
from repro.pxml import PNode, parse
from repro.sync import Reconciler, SyncEndpoint, SyncSession


def item(item_id, name, number=None):
    node = PNode("item", {"id": item_id})
    node.append(PNode("name", text=name))
    if number is not None:
        node.append(PNode("number", {"type": "cell"}, number))
    return node


class TestSyncEndpoint:
    def test_put_and_get(self):
        ep = SyncEndpoint("phone")
        ep.put_item(item("1", "Bob"), now=10)
        assert ep.item("1").child("name").text == "Bob"
        assert ep.item_ids() == ["1"]
        assert ep.updated_at("1") == 10

    def test_item_requires_id(self):
        ep = SyncEndpoint("phone")
        with pytest.raises(SyncError):
            ep.put_item(PNode("item"))

    def test_wrong_tag_rejected(self):
        ep = SyncEndpoint("phone")
        with pytest.raises(SyncError):
            ep.put_item(PNode("entry", {"id": "1"}))

    def test_noop_write_not_logged(self):
        ep = SyncEndpoint("phone")
        ep.put_item(item("1", "Bob"))
        seq = ep.seq
        ep.put_item(item("1", "Bob"))
        assert ep.seq == seq

    def test_delete(self):
        ep = SyncEndpoint("phone")
        ep.put_item(item("1", "Bob"))
        ep.delete_item("1")
        assert ep.item("1") is None
        with pytest.raises(SyncError):
            ep.delete_item("1")

    def test_changes_since_collapses_per_item(self):
        ep = SyncEndpoint("phone")
        ep.put_item(item("1", "Bob"))
        mark = ep.seq
        ep.put_item(item("1", "Bobby"))
        ep.put_item(item("1", "Robert"))
        ep.put_item(item("2", "Carol"))
        changes = ep.changes_since(mark)
        assert len(changes) == 2
        names = {
            c.item_id: c.payload.child("name").text for c in changes
        }
        assert names["1"] == "Robert"

    def test_snapshot_and_load(self):
        ep = SyncEndpoint("phone")
        ep.put_item(item("2", "Carol"))
        ep.put_item(item("1", "Bob"))
        snap = ep.snapshot()
        assert [c.attrs["id"] for c in snap.children] == ["1", "2"]
        other = SyncEndpoint("network")
        other.load_snapshot(snap)
        assert other.item_ids() == ["1", "2"]
        with pytest.raises(SyncError):
            other.load_snapshot(parse("<calendar/>"))

    def test_items_are_copies(self):
        ep = SyncEndpoint("phone")
        original = item("1", "Bob")
        ep.put_item(original)
        original.child("name").text = "tampered"
        assert ep.item("1").child("name").text == "Bob"


def paired():
    phone = SyncEndpoint("phone")
    network = SyncEndpoint("network")
    session = SyncSession(phone, network)
    return phone, network, session


class TestFirstAndFastSync:
    def test_first_sync_is_slow(self):
        phone, network, session = paired()
        phone.put_item(item("1", "Bob"), now=1)
        network.put_item(item("2", "Carol"), now=2)
        report = session.run(now=10)
        assert report.mode == "slow"
        assert phone.item_ids() == ["1", "2"]
        assert network.item_ids() == ["1", "2"]

    def test_second_sync_is_fast(self):
        phone, network, session = paired()
        session.run(now=1)
        report = session.run(now=2)
        assert report.mode == "fast"

    def test_fast_sync_ships_only_deltas(self):
        phone, network, session = paired()
        for index in range(20):
            network.put_item(item(str(index), "c%d" % index), now=1)
        session.run(now=2)          # slow: everything moves
        phone.put_item(item("new", "Dave"), now=3)
        report = session.run(now=4)
        assert report.mode == "fast"
        assert report.sent_to_server == 1
        assert report.sent_to_client == 0
        assert network.item("new") is not None

    def test_fast_sync_propagates_deletions(self):
        phone, network, session = paired()
        phone.put_item(item("1", "Bob"), now=1)
        session.run(now=2)
        phone.delete_item("1", now=3)
        session.run(now=4)
        assert network.item("1") is None

    def test_idle_fast_sync_is_cheap(self):
        phone, network, session = paired()
        for index in range(50):
            phone.put_item(item(str(index), "c%d" % index), now=1)
        slow_report = session.run(now=2)
        idle_report = session.run(now=3)
        assert idle_report.bytes < slow_report.bytes / 3
        assert idle_report.sent_to_client == 0
        assert idle_report.sent_to_server == 0

    def test_anchor_corruption_forces_slow_sync(self):
        phone, network, session = paired()
        session.run(now=1)
        session.corrupt_client_anchor()
        report = session.run(now=2)
        assert report.mode == "slow"
        # And the session recovers to fast afterwards.
        assert session.run(now=3).mode == "fast"


class TestConflicts:
    def make_conflict(self, policy):
        phone, network, session = paired()
        phone.put_item(item("1", "Bob", "111"), now=1)
        session.run(now=2)
        phone.put_item(item("1", "Bobby"), now=10)
        network.put_item(item("1", "Bob", "222"), now=5)
        session = SyncSession(phone, network, Reconciler(policy))
        # keep the original session anchors: rebuild pairing state
        session._client_anchor = "x"
        session._server_anchor = "x"
        session._ever_synced = True
        session._client_mark = phone.seq - 1
        session._server_mark = network.seq - 1
        report = session.run(now=20)
        return phone, network, report

    def test_client_wins(self):
        phone, network, report = self.make_conflict("client-wins")
        assert network.item("1").child("name").text == "Bobby"
        assert report.conflicts[0].winner == "client"

    def test_server_wins(self):
        phone, network, report = self.make_conflict("server-wins")
        assert phone.item("1").child("name").text == "Bob"
        assert phone.item("1").child("number").text == "222"

    def test_last_writer_wins(self):
        phone, network, report = self.make_conflict("last-writer-wins")
        # Phone wrote at t=10, network at t=5: phone wins.
        assert network.item("1").child("name").text == "Bobby"

    def test_merge_combines_fields(self):
        phone, network, report = self.make_conflict("merge")
        merged_client = phone.item("1")
        merged_server = network.item("1")
        # Newer name (Bobby) plus the number only the server had.
        assert merged_client.child("name").text == "Bobby"
        assert merged_client.child("number").text == "222"
        assert merged_client.deep_equal(merged_server)
        assert report.conflicts[0].winner == "merged"

    def test_duplicate_keeps_both(self):
        phone, network, report = self.make_conflict("duplicate")
        assert sorted(network.item_ids()) == ["1", "1-dup"]
        assert sorted(phone.item_ids()) == ["1", "1-dup"]

    def test_delete_vs_edit_keeps_edit_under_merge(self):
        phone, network, session = paired()
        phone.put_item(item("1", "Bob"), now=1)
        session.run(now=2)
        phone.delete_item("1", now=3)
        network.put_item(item("1", "Bob", "999"), now=4)
        report = session.run(now=5)
        assert phone.item("1") is not None  # resurrection: edit wins
        assert network.item("1") is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(SyncError):
            Reconciler("coin-flip")

    def test_convergence_after_conflict(self):
        for policy in ("client-wins", "server-wins",
                       "last-writer-wins", "merge", "duplicate"):
            phone, network, _report = self.make_conflict(policy)
            assert phone.item_ids() == network.item_ids(), policy
            for item_id in phone.item_ids():
                assert phone.item(item_id).deep_equal(
                    network.item(item_id)
                ), policy


# ---------------------------------------------------------------------------
# shield-mediated sessions (gupcheck shield-egress satellite): the
# network never pushes an item to the device that the device's
# RequestContext is not permitted to see.
# ---------------------------------------------------------------------------

class TestShieldedSync:
    OWNER = "arnaud"

    def shielded(self, *permitted_items):
        from repro.access.context import RequestContext
        from repro.access.infrastructure import (
            PolicyEnforcementPoint, PolicyRepository, PolicyRule,
        )

        phone = SyncEndpoint("phone")
        network = SyncEndpoint("network")
        repo = PolicyRepository()
        for item_id in permitted_items:
            repo.store(PolicyRule(
                self.OWNER,
                "/user[@id='%s']/address-book/item[@id='%s']"
                % (self.OWNER, item_id),
                "permit",
            ))
        pep = PolicyEnforcementPoint(repo)
        context = RequestContext("bob", relationship="co-worker")
        session = SyncSession(
            phone, network,
            owner=self.OWNER, pep=pep, context=context,
        )
        return phone, network, session

    def test_misconfigured_shield_rejected(self):
        from repro.access.infrastructure import (
            PolicyEnforcementPoint, PolicyRepository,
        )

        pep = PolicyEnforcementPoint(PolicyRepository())
        with pytest.raises(SyncError):
            SyncSession(
                SyncEndpoint("phone"), SyncEndpoint("network"), pep=pep
            )

    def test_slow_sync_withholds_denied_items(self):
        phone, network, session = self.shielded("1")
        network.put_item(item("1", "Bob"), now=1)
        network.put_item(item("2", "Carol", "555"), now=2)
        report = session.run(now=10)
        assert report.mode == "slow"
        assert phone.item_ids() == ["1"]  # "2" never left the network
        assert report.withheld == 1
        assert session.withheld == 1
        assert report.sent_to_client == 1

    def test_fast_sync_withholds_denied_items(self):
        phone, network, session = self.shielded("1")
        network.put_item(item("1", "Bob"), now=1)
        session.run(now=5)
        network.put_item(item("3", "Eve", "777"), now=6)
        report = session.run(now=10)
        assert report.mode == "fast"
        assert phone.item_ids() == ["1"]
        assert report.withheld == 1
        assert session.withheld == 1  # first run had nothing to deny

    def test_withheld_items_not_on_the_wire(self):
        # Same data, with and without the shield: the shielded slow
        # sync must serialize strictly fewer bytes because the denied
        # item's payload never enters a message.
        phone, network, session = self.shielded("1")
        network.put_item(item("1", "Bob"), now=1)
        network.put_item(item("2", "Carol", "555"), now=2)
        shielded_report = session.run(now=10)

        phone2 = SyncEndpoint("phone")
        network2 = SyncEndpoint("network")
        network2.put_item(item("1", "Bob"), now=1)
        network2.put_item(item("2", "Carol", "555"), now=2)
        open_report = SyncSession(phone2, network2).run(now=10)

        assert shielded_report.bytes < open_report.bytes

    def test_owner_device_sees_everything(self):
        from repro.access.context import RequestContext
        from repro.access.infrastructure import (
            PolicyEnforcementPoint, PolicyRepository,
        )

        phone = SyncEndpoint("phone")
        network = SyncEndpoint("network")
        network.put_item(item("1", "Bob"), now=1)
        network.put_item(item("2", "Carol"), now=2)
        session = SyncSession(
            phone, network,
            owner=self.OWNER,
            pep=PolicyEnforcementPoint(PolicyRepository()),
            context=RequestContext(self.OWNER, relationship="self"),
        )
        report = session.run(now=10)
        assert phone.item_ids() == ["1", "2"]
        assert report.withheld == 0

    def test_upload_direction_not_filtered(self):
        # The device's own additions always reach the network — the
        # shield guards egress *to* the device, not ingress from it.
        phone, network, session = self.shielded()  # default-deny all
        phone.put_item(item("9", "Mine"), now=1)
        report = session.run(now=10)
        assert network.item_ids() == ["9"]
        assert report.sent_to_server == 1
        assert phone.item_ids() == ["9"]

    def test_unshielded_session_unchanged(self):
        phone, network, session = paired()
        assert session.shielded is False
        network.put_item(item("1", "Bob"), now=1)
        report = session.run(now=5)
        assert report.withheld == 0
        assert phone.item_ids() == ["1"]
