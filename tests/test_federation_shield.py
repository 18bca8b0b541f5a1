"""Privacy shield on the federation egress (E22): outbound writes are
enforced per attribute — a denied attribute is counted and ledgered
but its value never enters a foreign wire write. Mirrors the PR 3
shield-mediated sync-session tests for the reconciler's push path.
"""

import pytest

from repro.access import (
    PolicyEnforcementPoint,
    PolicyRepository,
    PolicyRule,
)
from repro.bus import ChangeBus
from repro.core.provenance import ProvenanceTracker
from repro.errors import AdapterError
from repro.adapters import LdapAdapter
from repro.federation import (
    FederationListener,
    ForeignDirectory,
    GupAttributeStore,
    LdapForeignDirectory,
    MappingEntry,
    MappingTable,
    Reconciler,
)
from repro.simnet import Network, Simulator
from repro.stores.directory import DirectoryServer, LdapEntry

USER = "u1"


def make_world(permitted_suffixes, foreign=None):
    """A world whose shield permits only *permitted_suffixes* of
    USER's profile to the foreign directory (default deny)."""
    sim = Simulator()
    network = Network()
    network.add_node("gupster")
    network.add_node("fed-conn")
    network.add_node("corp-ad")
    bus = ChangeBus(sim, network, "gupster")
    gup = GupAttributeStore(sim, bus=bus)
    if foreign is None:
        foreign = ForeignDirectory("corp-ad", sim)
    else:
        foreign.sim = sim
    table = MappingTable([
        MappingEntry("self/email", "mail", "both"),
        MappingEntry("self/name", "displayName", "out"),
    ])
    repo = PolicyRepository()
    for suffix in permitted_suffixes:
        repo.store(PolicyRule(
            USER, "/user[@id='%s']/%s" % (USER, suffix), "permit",
        ))
    prov = ProvenanceTracker()
    rec = Reconciler(
        "fed-conn", gup, foreign, table, network,
        PolicyEnforcementPoint(repo),
        provenance=prov,
        interval_ms=200.0,
    )
    bus.attach(FederationListener("fed", rec))
    rec.start()
    return sim, network, gup, foreign, rec, prov


class TestPerAttributeWithhold:
    def test_denied_attribute_never_in_foreign_wire_writes(self):
        # Only self/name may leave; self/email is denied by default.
        sim, network, gup, foreign, rec, prov = make_world(
            ["self/name"]
        )
        gup.write(USER, "self/name", "User One")
        gup.write(USER, "self/email", "secret@gup.example")
        sim.run(until=5000)
        # The permitted attribute crossed; the denied one did not.
        assert foreign.read(USER, "displayName")[0] == "User One"
        assert foreign.read(USER, "mail") is None
        # Not merely unapplied — never on the wire: no journal entry
        # (journaling happens per received write) and no state.
        assert all(
            change.attr != "mail" for change in foreign._journal
        )
        assert rec.withheld == 1
        assert rec.synced_out == 1

    def test_withhold_is_counted_in_metrics(self):
        sim, network, gup, foreign, rec, prov = make_world([])
        gup.write(USER, "self/email", "secret@gup.example")
        sim.run(until=3000)
        assert rec.withheld == 1
        assert network.metrics.counter("fed.withheld").value == 1
        assert foreign.users() == []

    def test_withhold_is_ledgered_as_denied(self):
        sim, network, gup, foreign, rec, prov = make_world([])
        gup.write(USER, "self/email", "secret@gup.example")
        sim.run(until=3000)
        denied = [r for r in prov._records if not r.granted]
        assert len(denied) == 1
        record = denied[0]
        assert record.operation == "reconcile"
        assert record.requester == "corp-ad"
        assert "withheld" in record.note
        assert str(record.path) == (
            "/user[@id='%s']/self/email" % USER
        )

    def test_withheld_pair_does_not_oscillate(self):
        # A denial is not a failure: the pair goes quiet (no reject
        # queue churn, no repeated enforcement storm), and the
        # withhold count stays at one until the value changes again.
        sim, network, gup, foreign, rec, prov = make_world([])
        gup.write(USER, "self/email", "secret@gup.example")
        sim.run(until=3000)
        assert rec.withheld == 1
        assert len(rec.queue) == 0
        sim.run(until=sim.now + 3000)
        assert rec.withheld == 1
        # A fresh edit re-attempts (and is re-withheld) exactly once.
        gup.write(USER, "self/email", "other@gup.example")
        sim.run(until=sim.now + 3000)
        assert rec.withheld == 2

    def test_privacy_mandated_divergence_is_quiet(self):
        # Foreign holds its own value for a denied attribute; the
        # reconciler may not export GUP's, so the sides stay apart —
        # but without oscillating.
        sim, network, gup, foreign, rec, prov = make_world([])
        foreign.write(USER, "mail", "foreign@corp.example", at=10.0)
        sim.run(until=2000)
        gup.write(USER, "self/email", "newer@gup.example")
        sim.run(until=6000)
        # GUP's newer value won the lww conflict but was withheld, so
        # each side keeps its own view.
        assert gup.read(USER, "self/email")[0] == "newer@gup.example"
        assert foreign.read(USER, "mail")[0] == "foreign@corp.example"
        writes_before = (gup.writes, foreign.writes)
        sim.run(until=sim.now + 3000)
        assert (gup.writes, foreign.writes) == writes_before


class TestLdapBackedFederation:
    def setup_method(self):
        self.server = DirectoryServer("ldap.corp", suffix="o=corp")
        self.server.add(
            LdapEntry("o=corp", ["organization"], {"o": ["corp"]})
        )
        self.server.add(LdapEntry(
            "uid=u1,o=corp",
            ["person", "inetOrgPerson", "organizationalPerson"],
            {"cn": ["User One"], "sn": ["One"], "uid": ["u1"]},
        ))
        self.adapter = LdapAdapter("gup.ldap.corp", self.server)
        self.adapter.map_person(USER, "uid=u1,o=corp")

    def test_exports_land_in_the_directory_server(self):
        sim = Simulator()
        foreign = LdapForeignDirectory(
            "corp-ad", sim, adapter=self.adapter
        )
        sim2, network, gup, foreign, rec, prov = make_world(
            ["self/email", "self/name"], foreign=foreign
        )
        gup.write(USER, "self/email", "u1@corp.example")
        sim2.run(until=3000)
        entry = self.server.entry("uid=u1,o=corp")
        assert entry.values("mail") == ["u1@corp.example"]

    def test_denied_attribute_never_reaches_the_server(self):
        sim = Simulator()
        foreign = LdapForeignDirectory(
            "corp-ad", sim, adapter=self.adapter
        )
        sim2, network, gup, foreign, rec, prov = make_world(
            [], foreign=foreign
        )
        gup.write(USER, "self/email", "secret@gup.example")
        sim2.run(until=3000)
        entry = self.server.entry("uid=u1,o=corp")
        assert entry.values("mail") == []
        assert rec.withheld == 1

    def test_schema_violation_feeds_the_reject_queue(self):
        # displayName is not in the person entry's object classes, so
        # the directory rejects the adapter write; the reconciler
        # parks the object instead of crashing or losing the value.
        sim = Simulator()
        foreign = LdapForeignDirectory(
            "corp-ad", sim, adapter=self.adapter
        )
        with pytest.raises(AdapterError):
            self.adapter.write_attr(USER, "displayName", ["X"])
        sim2, network, gup, foreign, rec, prov = make_world(
            ["self/email", "self/name"], foreign=foreign
        )
        gup.write(USER, "self/name", "User One")
        sim2.run(until=3000)
        assert rec.rejects >= 1
        parked = rec.queue.get(USER)
        assert parked is not None
        assert "self/name" in parked.pending
        # The directory entry stayed exactly as it was (rollback).
        entry = self.server.entry("uid=u1,o=corp")
        assert entry.values("displayname") == []


class TestRoundSpans:
    def test_failed_polls_leave_no_open_span(self):
        # corp-ad is down for a second: every journal poll in that
        # window fails and returns early. Each round's spans must
        # still close, or the recorder fills with open ones.
        sim, network, gup, foreign, rec, prov = make_world(["self/name"])
        recorder = network.enable_observability()
        sim.schedule(1000, lambda: network.fail("corp-ad"))
        sim.schedule(2000, lambda: network.restore("corp-ad"))
        gup.write(USER, "self/name", "User One")
        sim.run(until=5000)
        assert rec.poll_failures >= 1
        assert any(span.name == "fed.round" for span in recorder.spans)
        assert recorder.open_spans() == []
        assert foreign.read(USER, "displayName")[0] == "User One"
