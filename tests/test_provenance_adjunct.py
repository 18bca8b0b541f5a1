"""Unit tests for the Section 7 extensions: data provenance tracking
and the Schema Adjunct Framework."""

import pytest

from repro.access import (
    PolicyRule,
    RequestContext,
    relationship_in,
)
from repro.core import ProvenanceTracker, SourceAnnotator
from repro.errors import AccessDeniedError, PXMLError
from repro.pxml import GUP_ADJUNCT, SchemaAdjunct, parse
from repro.workloads import build_converged_world


BOOK = "/user[@id='arnaud']/address-book"
PRESENCE = "/user[@id='arnaud']/presence"


class TestProvenanceLedger:
    def setup_method(self):
        self.world = build_converged_world(split_address_book=True)
        self.tracker = ProvenanceTracker()
        self.annotator = SourceAnnotator()
        self.world.executor.provenance = self.tracker
        self.world.executor.annotator = self.annotator

    def test_resolve_recorded(self):
        ctx = RequestContext("arnaud", relationship="self")
        self.world.executor.referral("client-app", BOOK, ctx, now=5.0)
        records = self.tracker.disclosures_for("arnaud", "address-book")
        assert len(records) == 1
        record = records[0]
        assert record.requester == "arnaud"
        assert record.granted
        assert record.at == 5.0
        assert "gup.yahoo.com" in record.stores
        assert "gup.lucent.com" in record.stores

    def test_denial_recorded(self):
        with pytest.raises(AccessDeniedError):
            self.world.executor.referral(
                "client-app", PRESENCE, RequestContext("telemarketer")
            )
        denied = self.tracker.denied_attempts("arnaud")
        assert len(denied) == 1
        assert denied[0].requester == "telemarketer"

    def test_requester_counts(self):
        ctx_self = RequestContext("arnaud", relationship="self")
        ctx_mom = RequestContext("mom", relationship="family")
        self.world.executor.referral("client-app", BOOK, ctx_self)
        self.world.executor.referral("client-app", BOOK, ctx_self)
        self.world.executor.referral("client-app", BOOK, ctx_mom)
        counts = self.tracker.requesters_of("arnaud")
        assert counts == {"arnaud": 2, "mom": 1}

    def test_component_filter(self):
        ctx = RequestContext("arnaud", relationship="self")
        self.world.executor.referral("client-app", BOOK, ctx)
        self.world.executor.referral("client-app", PRESENCE, ctx)
        assert len(self.tracker.disclosures_for("arnaud")) == 2
        assert len(
            self.tracker.disclosures_for("arnaud", "presence")
        ) == 1

    def test_update_recorded(self):
        ctx = RequestContext(
            "arnaud", relationship="self", purpose="provision"
        )
        self.world.executor.provision(
            "client-app", BOOK, parse("<address-book/>"), ctx
        )
        records = self.tracker.disclosures_for("arnaud", "address-book")
        assert any(r.operation == "update" for r in records)

    def test_other_users_isolated(self):
        ctx = RequestContext("arnaud", relationship="self")
        self.world.executor.referral("client-app", BOOK, ctx)
        assert self.tracker.disclosures_for("alice") == []


class TestSourceAnnotation:
    def setup_method(self):
        self.world = build_converged_world(split_address_book=True)
        self.annotator = SourceAnnotator()
        self.world.executor.annotator = self.annotator

    def fetch_book(self):
        ctx = RequestContext("arnaud", relationship="self")
        fragment, _trace = self.world.executor.referral(
            "client-app", BOOK, ctx
        )
        return fragment

    def test_merged_items_know_their_store(self):
        fragment = self.fetch_book()
        book = fragment.child("address-book")
        origins = {
            item.attrs["type"]: self.annotator.origin_of(fragment, item)
            for item in book.children
        }
        assert origins["personal"] == "gup.yahoo.com"
        assert origins["corporate"] == "gup.lucent.com"

    def test_sources_of_covers_fragment(self):
        fragment = self.fetch_book()
        sources = self.annotator.sources_of(fragment)
        assert any("yahoo" in s for s in sources.values())
        assert any("lucent" in s for s in sources.values())

    def test_redistribution_conflict_detected(self):
        """Corporate items came from Lucent; Lucent's access rules do
        not allow family requesters — redistributing the merged book
        to mom must flag the corporate elements."""
        fragment = self.fetch_book()
        lucent_rules = [
            PolicyRule(
                "arnaud",
                BOOK + "/item[@type='corporate']",
                "permit",
                relationship_in("co-worker", "boss"),
            ),
        ]
        yahoo_rules = [
            PolicyRule(
                "arnaud",
                BOOK + "/item[@type='personal']",
                "permit",
                relationship_in("family", "buddy"),
            ),
        ]
        mom = RequestContext("mom", relationship="family")
        conflicts = self.annotator.redistribution_conflicts(
            fragment,
            {
                "gup.lucent.com": lucent_rules,
                "gup.yahoo.com": yahoo_rules,
            },
            mom,
        )
        conflict_stores = {store for _loc, store in conflicts}
        assert conflict_stores == {"gup.lucent.com"}
        # A co-worker sees no conflicts on the corporate side.
        coworker = RequestContext(
            "bob", relationship="co-worker", hour=11, weekday=1
        )
        conflicts = self.annotator.redistribution_conflicts(
            fragment,
            {"gup.lucent.com": lucent_rules},
            coworker,
        )
        assert conflicts == []


class TestSchemaAdjunct:
    def test_most_specific_region_wins(self):
        adjunct = SchemaAdjunct()
        adjunct.attach("/user", "cache-ttl-ms", 60_000.0)
        adjunct.attach("/user/presence", "cache-ttl-ms", 2_000.0)
        assert adjunct.property_for(
            "/user[@id='a']/presence", "cache-ttl-ms"
        ) == 2_000.0
        assert adjunct.property_for(
            "/user[@id='a']/calendar", "cache-ttl-ms"
        ) == 60_000.0

    def test_predicate_specificity(self):
        adjunct = SchemaAdjunct()
        adjunct.attach("/user/address-book", "sensitivity", "normal")
        adjunct.attach(
            "/user/address-book/item[@type='personal']",
            "sensitivity", "private",
        )
        assert adjunct.property_for(
            "/user[@id='a']/address-book/item[@type='personal']",
            "sensitivity",
        ) == "private"
        assert adjunct.property_for(
            "/user[@id='a']/address-book/item[@type='corporate']",
            "sensitivity",
        ) == "normal"

    def test_default_when_no_region_covers(self):
        adjunct = SchemaAdjunct()
        adjunct.attach("/user/wallet", "cache-ttl-ms", 0.0)
        assert adjunct.property_for(
            "/other[@id='a']/thing", "cache-ttl-ms", default=-1
        ) == -1

    def test_attach_rejects_attribute_regions(self):
        with pytest.raises(PXMLError):
            SchemaAdjunct().attach("/user/device/@carrier", "x", 1)

    def test_reattach_replaces(self):
        adjunct = SchemaAdjunct()
        adjunct.attach("/user", "reconcile", "merge")
        adjunct.attach("/user", "reconcile", "server-wins")
        assert adjunct.property_for(
            "/user[@id='a']/presence", "reconcile"
        ) == "server-wins"

    def test_properties_at(self):
        props = GUP_ADJUNCT.properties_at("/user[@id='a']/wallet")
        assert props["cache-ttl-ms"] == 0.0
        assert props["sensitivity"] == "restricted"
        assert props["reconcile"] == "server-wins"

    def test_regions_listing(self):
        assert "/user/presence" in GUP_ADJUNCT.regions("cache-ttl-ms")


class TestAdjunctDrivenCaching:
    def test_volatile_component_gets_short_ttl(self):
        from repro.pxml import build_gup_adjunct

        world = build_converged_world()
        world.server.adjunct = build_gup_adjunct()
        ctx = RequestContext("arnaud", relationship="self")
        # presence TTL is 2s per the adjunct.
        world.executor.cached("client-app", PRESENCE, ctx, now=0.0)
        _f, _t, hit = world.executor.cached(
            "client-app", PRESENCE, ctx, now=1_000.0
        )
        assert hit
        _f, _t, hit = world.executor.cached(
            "client-app", PRESENCE, ctx, now=5_000.0
        )
        assert not hit  # expired at 2s, far before the 60s default

    def test_wallet_never_cached(self):
        from repro.pxml import PNode, build_gup_adjunct
        from repro.core import GupsterServer, QueryExecutor
        from repro.core.cache import ComponentCache
        from repro.simnet import Network
        from repro.workloads import SyntheticAdapter

        network = Network(seed=9)
        network.add_node("gupster")
        network.add_node("client")
        network.add_node("gup.s.com")
        server = GupsterServer(
            "gupster", cache=ComponentCache(),
            enforce_policies=False, adjunct=build_gup_adjunct(),
        )
        store = SyntheticAdapter("gup.s.com")
        store.add_user("u1", ["preferences"])
        # Hand-register a wallet component via a written fragment.
        wallet = PNode("wallet")
        wallet.append(PNode("card", {"id": "c1"}))
        store.apply_component("u1", "preferences", PNode("preferences"))
        server.join(store)
        server.register_component("/user[@id='u1']/wallet", "gup.s.com")
        store._holdings["u1"] = ("preferences", "devices")  # not used
        executor = QueryExecutor(network, server)
        assert server.cache_ttl_for("/user[@id='u1']/wallet") == 0.0
        assert server.cache_ttl_for(
            "/user[@id='u1']/presence"
        ) == 2_000.0
