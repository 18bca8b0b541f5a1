"""Direct exercises of public API surface not reached elsewhere."""

from repro.access import PolicyRepository, PolicyRule
from repro.core import MirrorConstellation, UserDistributedMdm
from repro.core.server import GupsterServer
from repro.pxml import GUP_SCHEMA, KeySpec, PNode, parse_path
from repro.simnet import Network
from repro.stores import (
    HLR,
    VLR,
    Class5Switch,
    LdapEntry,
    PhoneBookEntry,
    PresenceServer,
    WebPortal,
)
from repro.sync import SyncEndpoint, SyncSession
from repro.workloads import SyntheticAdapter


class TestStoreSurface:
    def test_presence_buddy_management(self):
        server = PresenceServer("im")
        server.add_buddy("a", "b", "Bee")
        server.add_buddy("a", "c")
        assert server.buddies("a") == {"b": "Bee", "c": ""}
        server.remove_buddy("a", "b")
        assert server.buddies("a") == {"c": ""}
        server.remove_buddy("a", "nope")  # idempotent

    def test_portal_accounts(self):
        portal = WebPortal("p")
        assert not portal.has_account("x")
        portal.create_account("x")
        assert portal.has_account("x")
        assert portal.accounts() == ["x"]

    def test_switch_has_line(self):
        switch = Class5Switch("s")
        assert not switch.has_line("1")
        switch.install_line("1", "u")
        assert switch.has_line("1")

    def test_hlr_surface(self):
        hlr = HLR("h", carrier="c")
        vlr = VLR("v", ["cell-1"])
        hlr.attach_vlr(vlr)
        hlr.provision_subscriber("1", "i", "u")
        assert [r.user_id for r in hlr.all_subscribers()] == ["u"]
        assert hlr.routing_info("1") is None  # detached
        hlr.location_update("1", "v", "cell-1")
        assert hlr.routing_info("1") == "v"
        assert vlr.visitor_count == 1

    def test_phonebook_entry_tuple(self):
        entry = PhoneBookEntry("1", "Bob", "908")
        assert entry.as_tuple() == ("1", "Bob", "908")

    def test_ldap_parent_dn(self):
        entry = LdapEntry("uid=a,o=x", ["organization"], {"o": ["x"]})
        assert entry.parent_dn() == "o=x"
        root = LdapEntry("o=x", ["organization"], {"o": ["x"]})
        assert root.parent_dn() is None


class TestPxmlSurface:
    def test_pnode_extend(self):
        node = PNode("a")
        node.extend([PNode("b"), PNode("c")])
        assert [c.tag for c in node.children] == ["b", "c"]

    def test_path_iter_steps(self):
        path = parse_path("/a/b/c")
        assert [s.name for s in path.iter_steps()] == ["a", "b", "c"]

    def test_keyspec_surface(self):
        spec = KeySpec({"item": ("id",)})
        assert spec.key_attrs("item") == ("id",)
        assert spec.key_attrs("other") is None
        extended = spec.extended({"thing": ("name",)})
        assert extended.key_attrs("thing") == ("name",)
        assert spec.key_attrs("thing") is None  # original untouched

    def test_element_child_decl(self):
        decl = GUP_SCHEMA.decl("user")
        assert decl.child_decl("presence") is not None
        assert decl.child_decl("nothing") is None


class TestInfraSurface:
    def test_policy_repo_owners(self):
        repo = PolicyRepository()
        repo.store(PolicyRule("u", "/user[@id='u']/presence", "permit"))
        assert repo.owners() == ["u"]

    def test_pap_list_rules(self):
        from repro.access import PolicyAdministrationPoint
        repo = PolicyRepository()
        pap = PolicyAdministrationPoint(repo)
        rule = PolicyRule("u", "/user[@id='u']/presence", "permit",
                          rule_id="mine")
        pap.provision_rule("u", rule)
        assert [r.rule_id for r in pap.list_rules("u")] == ["mine"]
        assert pap.list_rules("other") == []

    def test_network_sample_hop_direct(self):
        net = Network(seed=1)
        net.add_node("a")
        net.add_node("b")
        assert net.sample_hop("a", "b", 100) > 0

    def test_sync_surface(self):
        endpoint = SyncEndpoint("e")
        assert endpoint.item_count == 0
        session = SyncSession(endpoint, SyncEndpoint("f"))
        assert not session.anchors_match
        session.run()
        assert session.anchors_match

    def test_constellation_server_at(self):
        net = Network(seed=1)
        net.add_node("m0")
        constellation = MirrorConstellation(net, ["m0"])
        assert constellation.server_at("m0").name == "m0"

    def test_mdm_server_for(self):
        net = Network(seed=1)
        net.add_node("wp")
        mdm = UserDistributedMdm(net, "wp")
        assert mdm.server_for("nobody") is None
        server = GupsterServer("s", enforce_policies=False)
        mdm.assign("u", "wp", server)
        assert mdm.server_for("u") is server

    def test_reachme_commute_predicate(self):
        from repro.services import ReachMeState
        state = ReachMeState()
        state.hour, state.weekday = 8, 1
        assert state.is_commute()
        state.hour = 12
        assert not state.is_commute()
        state.hour, state.weekday = 8, 6
        assert not state.is_commute()

    def test_prepay_surface(self):
        from repro.services import PrePayService
        hlr = HLR("h", carrier="c")
        hlr.provision_subscriber("1", "i", "u")
        service = PrePayService(hlr)
        assert not service.has_account("u")
        service.open_account("u", 10)
        assert service.account_ids() == ["u"]

    def test_annotator_direct(self):
        from repro.core import SourceAnnotator
        annotator = SourceAnnotator()
        store = SyntheticAdapter("gup.s.com")
        store.add_user("u", ["presence"])
        view = store.export_user("u")
        annotator.annotate(view, "gup.s.com")
        assert annotator.origin_of(view, view) == "gup.s.com"
