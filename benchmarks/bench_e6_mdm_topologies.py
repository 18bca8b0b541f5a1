"""E6 — MDM topology alternatives (Section 5.1): centralized mirrored
constellation vs user-level distributed (white pages) vs hierarchical
delegation. Measures lookup latency, availability under mirror
failures, and the meta-data privacy exposure of each topology.
"""

from repro.access import RequestContext
from repro.core import (
    CentralizedMdm,
    GupsterServer,
    HierarchicalMdm,
    UserDistributedMdm,
)
from repro.errors import GupsterError
from repro.simnet import Network
from repro.workloads import SyntheticAdapter


def make_server(name, user, components=("presence", "address-book")):
    server = GupsterServer(name, enforce_policies=False)
    store = SyntheticAdapter("store." + name)
    store.add_user(user, list(components))
    server.join(store)
    return server


def build():
    network = Network(seed=31)
    network.add_node("client", region="internet")
    for node in ("mdm.us", "mdm.eu", "whitepages", "mdm.carrier",
                 "mdm.bank"):
        network.add_node(node, region="core")
    # Make the EU mirror farther from this client.
    network.link("client", "mdm.us", base_ms=15.0, jitter_ms=2.0)
    network.link("client", "mdm.eu", base_ms=70.0, jitter_ms=5.0)

    all_components = (
        "presence", "address-book", "game-scores", "preferences"
    )
    book_slices = (
        "/user[@id='u1']/address-book/item[@type='personal']",
        "/user[@id='u1']/address-book/item[@type='corporate']",
    )
    shared = make_server("central", "u1", components=all_components)
    for slice_path in book_slices:
        shared.register_component(slice_path, "store.central")
    centralized = CentralizedMdm(network, shared, ["mdm.us", "mdm.eu"])

    distributed = UserDistributedMdm(network, "whitepages")
    distributed.assign(
        "u1", "mdm.carrier",
        make_server("carrier", "u1", components=all_components),
    )

    hierarchical = HierarchicalMdm(network)
    primary = make_server("primary", "u1", components=("presence",))
    # The bank manages the sensitive bulk: three components hidden
    # behind ONE opaque delegation pointer at the primary.
    bank = GupsterServer("bank", enforce_policies=False)
    bank_store = SyntheticAdapter("store.bank")
    bank_store.add_user(
        "u1", ["address-book", "game-scores", "preferences"]
    )
    bank.join(bank_store)
    for slice_path in book_slices:
        bank.register_component(slice_path, "store.bank")
    hierarchical.set_primary("u1", "mdm.carrier", primary)
    hierarchical.delegate(
        "u1", "/user[@id='u1']/address-book", "mdm.bank", bank
    )
    hierarchical.delegate(
        "u1", "/user[@id='u1']/game-scores", "mdm.bank", bank
    )
    hierarchical.delegate(
        "u1", "/user[@id='u1']/preferences", "mdm.bank", bank
    )
    return network, centralized, distributed, hierarchical


PRESENCE = "/user[@id='u1']/presence"
BOOK = "/user[@id='u1']/address-book"


def ctx():
    return RequestContext("app", relationship="third-party")


def test_e6_lookup_latency(benchmark, report):
    def run():
        network, centralized, distributed, hierarchical = build()
        rows = []
        _ref, trace = centralized.resolve("client", PRESENCE, ctx())
        rows.append(("centralized (near mirror)", trace.elapsed_ms,
                     trace.hops))
        network.fail("mdm.us")
        _ref, trace = centralized.resolve("client", PRESENCE, ctx())
        rows.append(("centralized (failover to far mirror)",
                     trace.elapsed_ms, trace.hops))
        network.restore("mdm.us")
        _ref, trace = distributed.resolve("client", PRESENCE, ctx())
        rows.append(("user-distributed (via white pages)",
                     trace.elapsed_ms, trace.hops))
        _ref, trace = distributed.resolve(
            "client", PRESENCE, ctx(), hint="mdm.carrier"
        )
        rows.append(("user-distributed (with hint)",
                     trace.elapsed_ms, trace.hops))
        _ref, trace = hierarchical.resolve("client", PRESENCE, ctx())
        rows.append(("hierarchical (primary answers)",
                     trace.elapsed_ms, trace.hops))
        _ref, trace = hierarchical.resolve("client", BOOK, ctx())
        rows.append(("hierarchical (delegated subtree)",
                     trace.elapsed_ms, trace.hops))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e6_lookup_latency",
        "E6 — MDM lookup latency by topology",
        ["topology / case", "latency ms", "hops"],
        rows,
        notes=(
            "White pages and hierarchy each add one round trip over "
            "the plain centralized lookup; failover charges the "
            "failure-detection timeout."
        ),
    )
    by_label = {row[0]: row for row in rows}
    # White pages adds hops over the hinted path.
    assert (
        by_label["user-distributed (via white pages)"][2]
        > by_label["user-distributed (with hint)"][2]
    )
    # Delegation adds a round trip over the primary-only path.
    assert (
        by_label["hierarchical (delegated subtree)"][2]
        > by_label["hierarchical (primary answers)"][2]
    )


def test_e6_availability(benchmark, report):
    def run():
        rows = []
        for failed in ([], ["mdm.us"], ["mdm.us", "mdm.eu"]):
            network, centralized, distributed, _hier = build()
            for node in failed:
                network.fail(node)
            attempts = 20
            central_ok = 0
            for _ in range(attempts):
                try:
                    centralized.resolve("client", PRESENCE, ctx())
                    central_ok += 1
                except GupsterError:
                    pass
            # user-distributed depends on its single MDM + whitepages.
            if "mdm.us" in failed and "mdm.eu" in failed:
                network.fail("mdm.carrier")
            dist_ok = 0
            for _ in range(attempts):
                try:
                    distributed.resolve("client", PRESENCE, ctx())
                    dist_ok += 1
                except GupsterError:
                    pass
            rows.append(
                (", ".join(failed) if failed else "(none)",
                 100.0 * central_ok / attempts,
                 100.0 * dist_ok / attempts)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e6_availability",
        "E6 — lookup availability under MDM node failures (%)",
        ["failed nodes", "centralized (2 mirrors)",
         "user-distributed (1 node)"],
        rows,
        notes="The mirrored constellation survives a mirror loss; a "
              "single per-user MDM is a single point of failure.",
    )
    assert rows[1][1] == 100.0   # one mirror down: still available
    assert rows[2][1] == 0.0     # both mirrors down


def test_e6_privacy_exposure(benchmark, report):
    def run():
        _network, centralized, distributed, hierarchical = build()
        rows = []
        for topology, mdm in (
            ("centralized", centralized),
            ("user-distributed", distributed),
            ("hierarchical", hierarchical),
        ):
            for node, entries in sorted(
                mdm.meta_data_exposure().items()
            ):
                rows.append((topology, node, entries))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "e6_exposure",
        "E6 — meta-data exposure: coverage entries visible per node",
        ["topology", "node", "visible entries"],
        rows,
        notes=(
            "Hierarchy is the privacy win: the primary sees only an "
            "opaque pointer for delegated subtrees ('knows THAT the "
            "user has banking meta-data but knows essentially "
            "nothing about it')."
        ),
    )
    central_total = max(r[2] for r in rows if r[0] == "centralized")
    hier_primary = [
        r[2] for r in rows
        if r[0] == "hierarchical" and r[1] == "mdm.carrier"
    ][0]
    assert hier_primary < central_total
