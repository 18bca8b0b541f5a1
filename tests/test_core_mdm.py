"""Unit tests for the MDM topology variants (paper Section 5.1)."""

import pytest

from repro.errors import GupsterError
from repro.access import RequestContext
from repro.core import (
    CentralizedMdm,
    GupsterServer,
    HierarchicalMdm,
    UserDistributedMdm,
)
from repro.simnet import Network
from repro.workloads import SyntheticAdapter


PRESENCE = "/user[@id='u1']/presence"
WALLET_CARD = "/user[@id='u1']/wallet"


def ctx():
    return RequestContext("u1", relationship="self")


class DropNth(Network):
    """Loses exactly the *nth* hop sent — a reply-hop loss that
    ``force_drops`` (next-N-hops) cannot express."""

    def __init__(self, nth, **kwargs):
        super().__init__(**kwargs)
        self.until_drop = nth

    def _should_drop(self, src, dst):
        self.until_drop -= 1
        return self.until_drop == 0


def make_server(name, components=("presence",), user="u1"):
    server = GupsterServer(name)
    store = SyntheticAdapter("store.%s" % name)
    store.add_user(user, list(components))
    server.join(store)
    return server


class TestCentralizedMdm:
    def setup_method(self):
        self.network = Network(seed=5)
        self.network.add_node("client", region="internet")
        for mirror in ("mdm.us", "mdm.eu"):
            self.network.add_node(mirror, region="core")
        self.server = make_server("central")
        self.mdm = CentralizedMdm(
            self.network, self.server, ["mdm.us", "mdm.eu"]
        )

    def test_resolves_via_first_mirror(self):
        referral, trace = self.mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        assert trace.hops == 2

    def test_fails_over_to_second_mirror(self):
        self.network.fail("mdm.us")
        referral, trace = self.mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        # Timeout charged for the dead mirror, then success via mdm.eu.
        assert trace.elapsed_ms > self.network.detect_timeout_ms

    def test_all_mirrors_down(self):
        self.network.fail("mdm.us")
        self.network.fail("mdm.eu")
        with pytest.raises(GupsterError):
            self.mdm.resolve("client", PRESENCE, ctx())

    def test_needs_a_mirror(self):
        with pytest.raises(ValueError):
            CentralizedMdm(self.network, self.server, [])

    def test_exposure_every_mirror_sees_all(self):
        exposure = self.mdm.meta_data_exposure()
        assert set(exposure) == {"mdm.us", "mdm.eu"}
        assert len(set(exposure.values())) == 1


class TestUserDistributedMdm:
    def setup_method(self):
        self.network = Network(seed=5)
        for node in ("client", "whitepages", "mdm.carrier", "mdm.bank"):
            self.network.add_node(node)
        self.mdm = UserDistributedMdm(self.network, "whitepages")
        self.carrier_server = make_server("carrier")
        self.mdm.assign("u1", "mdm.carrier", self.carrier_server)

    def test_listed_user_via_whitepages(self):
        referral, trace = self.mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        # White pages RT + MDM RT.
        assert trace.hops == 4

    def test_unknown_user(self):
        with pytest.raises(GupsterError):
            self.mdm.resolve(
                "client", "/user[@id='ghost']/presence",
                RequestContext("ghost", relationship="self"),
            )

    def test_unlisted_user_needs_hint(self):
        unlisted_server = make_server("private", user="u2")
        self.mdm.assign(
            "u2", "mdm.bank", unlisted_server, unlisted=True
        )
        request = "/user[@id='u2']/presence"
        u2 = RequestContext("u2", relationship="self")
        with pytest.raises(GupsterError) as excinfo:
            self.mdm.resolve("client", request, u2)
        assert "unlisted" in str(excinfo.value)
        referral, trace = self.mdm.resolve(
            "client", request, u2, hint="mdm.bank"
        )
        assert referral.parts
        assert trace.hops == 2  # no white-pages hop with a hint

    def test_white_pages_trip_is_retried(self):
        # Any hop of the white-pages trip may be lost; the lookup
        # backs off and asks again instead of leaking the loss.
        self.network.force_drops("client", "whitepages", 1)
        referral, trace = self.mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        assert (trace.retries, trace.hops) == (1, 4)

    def test_white_pages_outage_fails_only_the_lookups(self):
        unlisted = make_server("u2-mdm", user="u2")
        self.mdm.assign("u2", "mdm.bank", unlisted, unlisted=True)
        self.network.fail("whitepages")
        outcomes, _trace = self.mdm.resolve_batch(
            "client",
            [PRESENCE, "/user[@id='u2']/presence"],
            [ctx(), RequestContext("u2", relationship="self")],
            hints={"u2": "mdm.bank"},
        )
        (_listed, error), (hinted, _none) = outcomes
        assert isinstance(error, GupsterError)
        assert hinted.parts  # needed no white pages

    def test_wrong_hint_rejected(self):
        with pytest.raises(GupsterError):
            self.mdm.resolve("client", PRESENCE, ctx(),
                             hint="mdm.wrong")

    def test_exposure_split_by_organization(self):
        other = make_server("other", user="u3")
        self.mdm.assign("u3", "mdm.bank", other)
        exposure = self.mdm.meta_data_exposure()
        assert exposure["mdm.carrier"] == (
            self.carrier_server.coverage.entry_count()
        )
        assert exposure["mdm.bank"] == other.coverage.entry_count()


class TestHierarchicalMdm:
    def setup_method(self):
        self.network = Network(seed=5)
        for node in ("client", "mdm.carrier", "mdm.bank"):
            self.network.add_node(node)
        self.mdm = HierarchicalMdm(self.network)
        self.primary = make_server("primary", components=("presence",))
        self.bank = GupsterServer("bank")
        bank_store = SyntheticAdapter("store.bank")
        bank_store.add_user("u1", ["preferences"])
        self.bank.join(bank_store)
        self.bank.register_component(WALLET_CARD, "store.bank")
        self.mdm.set_primary("u1", "mdm.carrier", self.primary)
        self.mdm.delegate("u1", WALLET_CARD, "mdm.bank", self.bank)

    def test_primary_handles_undelegated(self):
        referral, trace = self.mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        assert trace.hops == 2

    def test_delegated_subtree_adds_a_hop(self):
        referral, trace = self.mdm.resolve("client", WALLET_CARD, ctx())
        assert referral.parts[0].store_ids == ["store.bank"]
        assert trace.hops == 4  # primary RT + delegate RT

    def test_lost_primary_reply_is_retried(self):
        network = DropNth(2, seed=5)  # hop 2 is the primary's reply
        for node in ("client", "mdm.carrier"):
            network.add_node(node)
        mdm = HierarchicalMdm(network)
        mdm.set_primary("u1", "mdm.carrier", self.primary)
        referral, trace = mdm.resolve("client", PRESENCE, ctx())
        assert referral.parts
        assert (trace.retries, trace.hops) == (1, 3)
        # Health learns from the whole trip, not the request alone.
        assert not mdm.health.is_suspect("mdm.carrier")

    def test_delegation_must_belong_to_user(self):
        with pytest.raises(GupsterError):
            self.mdm.delegate(
                "u1", "/user[@id='other']/wallet", "mdm.bank", self.bank
            )

    def test_no_primary(self):
        with pytest.raises(GupsterError):
            self.mdm.resolve(
                "client", "/user[@id='nobody']/presence",
                RequestContext("nobody", relationship="self"),
            )

    def test_exposure_primary_sees_pointer_not_contents(self):
        exposure = self.mdm.meta_data_exposure()
        # Primary: its own entries + 1 opaque delegation pointer.
        assert exposure["mdm.carrier"] == (
            self.primary.coverage.entry_count() + 1
        )
        assert exposure["mdm.bank"] == self.bank.coverage.entry_count()
