"""The spine world: one GUPster front over two sharded fleets.

Built through public API only, from ``--seed``. The same constants
serve the server bootstrap (which builds the full population) and the
harness oracle (which rebuilds one subscriber's shard adapter to know
what a response must contain).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.access import PolicyRule, relationship_in
from repro.bus import CacheInvalidationListener, ChangeBus
from repro.core import ComponentCache, GupsterServer
from repro.serve import ServeWorld
from repro.simnet import Network, Simulator
from repro.stores import ShardedStore
from repro.workloads import SyntheticAdapter

USERS = 10_000
#: ``--quick`` population (self-tests only).
QUICK_USERS = 2_000

BOOK_ENTRIES = 40
CACHE_CAPACITY = 2048
#: Entries must outlive a whole run: expiry is not what the cached
#: workloads measure.
CACHE_TTL_MS = 600_000.0

#: fleet base id -> (shard count, components held for every user).
FLEETS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "gup.portal": (8, ("address-book", "calendar")),
    "gup.wireless": (4, ("presence", "devices")),
}

#: The three permit rules every subscriber provisions, in this order
#: (the order fixes the part order of a narrowed whole-profile read).
SHIELD: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("presence", ("buddy", "family")),
    ("address-book", ("family",)),
    ("calendar", ("family", "boss")),
)


def user_ids(count: int) -> List[str]:
    return ["u%07d" % index for index in range(count)]


def user_path(user_id: str, component: Optional[str] = None) -> str:
    base = "/user[@id='%s']" % user_id
    return base if component is None else "%s/%s" % (base, component)


def new_adapter(shard_id: str, region: str, seed: int) -> SyntheticAdapter:
    """One shard's adapter. Exports are memoized so the store is a
    cheap lookup and the time measured is GUPster's, not the synthetic
    generator's."""
    return SyntheticAdapter(
        shard_id, region=region, book_entries=BOOK_ENTRIES, seed=seed,
        memoize_exports=True,
    )


def make_fleets(
    seed: int, network: Optional[Network] = None
) -> Dict[str, ShardedStore]:
    """The two (still empty) fleets, keyed by base id."""
    return {
        base_id: ShardedStore(
            base_id, shards, network=network, region="core",
            adapter_factory=lambda sid, region: new_adapter(
                sid, region, seed
            ),
        )
        for base_id, (shards, _components) in FLEETS.items()
    }


def build_world(seed: int, users: int) -> ServeWorld:
    """20k subscribers on 8 + 4 shards, the privacy shield enforced
    with three permit rules each, a 2048-entry component cache and the
    change bus invalidating it."""
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    network.add_node("http-client", region="internet")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=CACHE_CAPACITY, default_ttl_ms=CACHE_TTL_MS
        ),
        enforce_policies=True,
    )
    fleets = make_fleets(seed, network)
    population = user_ids(users)
    for base_id, fleet in fleets.items():
        components = FLEETS[base_id][1]
        for user_id in population:
            fleet.add_user(user_id, components)
        fleet.join(server)
    for user_id in population:
        for component, relationships in SHIELD:
            server.provision_policy(user_id, PolicyRule(
                user_id, user_path(user_id, component), "permit",
                relationship_in(*relationships),
            ))
    sim = Simulator()
    bus = ChangeBus(sim, network, origin_node="gupster")
    assert server.cache is not None
    bus.attach(CacheInvalidationListener("serve-cache", server.cache))
    return ServeWorld(server, sim=sim, network=network, bus=bus)
