"""A whole-profile serving world, small enough for in-process probes.

One subscriber's four components live on two stores; the privacy
shield lets family see presence, address book and calendar, a buddy
presence only, and nobody else anything. A family read of the whole
profile therefore fans out to three parts, each a different component,
and merges them — the shape of the spine's ``profile_shield``
workload. ``tests/test_serve_pxml_work.py`` and the E18 smoke's pxml
work row drive it through ``App.handle``.
"""

from __future__ import annotations

from repro.access import PolicyRule, relationship_in
from repro.bus import CacheInvalidationListener, ChangeBus
from repro.core import ComponentCache, GupsterServer
from repro.serve import ServeWorld
from repro.simnet import Network, Simulator
from repro.workloads import SyntheticAdapter

PROFILE = "/user[@id='u1']"

#: store id -> components it holds for ``u1``.
STORES = (
    ("gup.portal", ["address-book", "calendar"]),
    ("gup.wireless", ["presence", "devices"]),
)

#: component -> relationships the shield permits.
SHIELD = (
    ("presence", ("buddy", "family")),
    ("address-book", ("family",)),
    ("calendar", ("family", "boss")),
)


def build_profile_world(with_bus: bool = False) -> ServeWorld:
    """The world above; *with_bus* adds a change bus that invalidates
    the cache, as the demo world's does."""
    network = Network(seed=3)
    network.add_node("gupster", region="core")
    network.add_node("http-client", region="internet")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(capacity=64, default_ttl_ms=60_000.0),
        enforce_policies=True,
    )
    for store_id, components in STORES:
        network.add_node(store_id, region="core")
        adapter = SyntheticAdapter(store_id, seed=7)
        adapter.add_user("u1", components)
        server.join(adapter)
    for component, relationships in SHIELD:
        server.provision_policy("u1", PolicyRule(
            "u1", "%s/%s" % (PROFILE, component), "permit",
            relationship_in(*relationships),
        ))
    sim = Simulator()
    bus = None
    if with_bus:
        bus = ChangeBus(sim, network, origin_node="gupster")
        bus.attach(CacheInvalidationListener("serve-cache", server.cache))
    return ServeWorld(server, sim=sim, network=network, bus=bus)
