"""Reference latency workloads — the determinism contract for E18.

The observability layer (:mod:`repro.obs`) promises **zero cost when
disabled**: attaching spans and registry-backed counters under the
:class:`~repro.simnet.Trace` API must not change a single sampled
latency. That promise is only checkable against a fixture captured
*before* the layer existed — so this module distils the E1/E7/E16
benchmark worlds into small, fully deterministic latency streams whose
values are pinned in ``tests/data/golden_latencies.json``:

* **e1** — the four Section 5.2 query patterns (referral / chaining /
  recruiting / direct) over a split address book, from a well-connected
  and a wireless client;
* **e7** — a cached-pattern request stream with hits, misses, TTL
  expiry and an invalidation;
* **e16** — the sunny-day chaining stream of the availability
  experiment (no faults, every resilience counter zero), plus a
  **degraded** stream where the corporate single point of failure is
  down (retry sweeps, backoff waits, partial merges);
* **e19_batch** — ``execute_batch`` over the split world, plain and
  cached, with shield denials, error items, a within-batch duplicate,
  degraded items and stale serves, under two retry policies;
* **e6_mdm** / **e14_constellation** — the Section 5.1 meta-data
  lookups (three MDM topologies, single and batched, and the mirror
  constellation) on sunny, node-down, forced-drop and lossy networks.

``bench_e18_observability.py`` and ``tests/test_obs_determinism.py``
replay these streams — observability disabled — and assert bit-identical
equality with the goldens; the benchmark then replays them enabled and
asserts the sampled latencies *still* match (spans observe, never
perturb).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.access import PolicyRule, RequestContext, relationship_in
from repro.core import (
    CentralizedMdm,
    ComponentCache,
    GupsterServer,
    HierarchicalMdm,
    MirrorConstellation,
    QueryExecutor,
    RetryPolicy,
    UserDistributedMdm,
)
from repro.pxml import PNode
from repro.simnet import Network, Trace
from repro.workloads.synthetic import SyntheticAdapter

__all__ = [
    "GOLDEN_STREAMS",
    "build_split_world",
    "e1_stream",
    "e7_stream",
    "e16_degraded_stream",
    "e16_sunny_stream",
    "e19_batch_stream",
    "e6_mdm_stream",
    "e14_constellation_stream",
    "reference_streams",
]

BOOK = "/user[@id='u1']/address-book"
PERSONAL = "/user[@id='u1']/address-book/item[@type='personal']"
CORPORATE = "/user[@id='u1']/address-book/item[@type='corporate']"
#: The split world's stores (see :func:`build_split_world`).
STORES = ("gup.alpha.com", "gup.beta.com", "gup.corp.com")

#: Stream names, in report order.
GOLDEN_STREAMS = (
    "e1", "e7", "e16_sunny", "e16_degraded", "e19_batch",
    "e6_mdm", "e14_constellation",
)


def _ctx() -> RequestContext:
    return RequestContext("app", relationship="third-party")


def build_split_world(
    seed: int = 16,
    ttl_ms: float = 2_000.0,
    stale_grace_ms: float = 0.0,
) -> Tuple[Network, GupsterServer, QueryExecutor]:
    """The E16 world: a split, partially-replicated address book.

    The personal slice is replicated (alpha || beta); the corporate
    slice lives only at the enterprise store — a single point of
    failure for the degraded stream to route around."""
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    network.add_node("client", region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=64,
            default_ttl_ms=ttl_ms,
            stale_grace_ms=stale_grace_ms,
        ),
        enforce_policies=False,
    )
    for store_id, store_seed in (
        ("gup.alpha.com", 5),
        ("gup.beta.com", 5),
        ("gup.corp.com", 9),
    ):
        adapter = SyntheticAdapter(store_id, seed=store_seed)
        adapter.add_user("u1", ["address-book"])
        server.join(adapter, user_ids=[])
    server.register_component(PERSONAL, "gup.alpha.com")
    server.register_component(PERSONAL, "gup.beta.com")
    server.register_component(CORPORATE, "gup.corp.com")
    executor = QueryExecutor(network, server)
    return network, server, executor


def e1_stream() -> List[float]:
    """E1's pattern comparison: referral/chaining/recruiting/direct
    over the split book from a fast and a wireless client."""
    network = Network(seed=2003)
    network.add_node("gupster", region="core")
    network.add_node("client-fast", region="internet")
    network.add_node("client-wireless", region="wireless")
    network.add_node("gup.east.com", region="internet")
    network.add_node("gup.west.com", region="internet")
    server = GupsterServer("gupster", enforce_policies=False)
    east = SyntheticAdapter("gup.east.com", book_entries=20, seed=1)
    west = SyntheticAdapter("gup.west.com", book_entries=20, seed=2)
    east.add_user("u1", ["address-book"])
    west.add_user("u1", ["address-book"])
    server.join(east, user_ids=[])
    server.join(west, user_ids=[])
    server.register_component(PERSONAL, "gup.east.com")
    server.register_component(CORPORATE, "gup.west.com")
    executor = QueryExecutor(network, server)
    latencies: List[float] = []
    for client in ("client-fast", "client-wireless"):
        _fragment, trace = executor.referral(client, BOOK, _ctx())
        latencies.append(trace.elapsed_ms)
        _fragment, trace = executor.chaining(client, BOOK, _ctx())
        latencies.append(trace.elapsed_ms)
        _fragment, trace = executor.recruiting(client, BOOK, _ctx())
        latencies.append(trace.elapsed_ms)
        _fragment, trace = executor.direct(
            client,
            [("gup.east.com", PERSONAL), ("gup.west.com", CORPORATE)],
        )
        latencies.append(trace.elapsed_ms)
    return latencies


def e7_stream() -> List[float]:
    """E7's cached pattern: repeats (hits), TTL expiry, refill, and a
    trigger invalidation mid-stream."""
    network = Network(seed=77)
    network.add_node("gupster", region="core")
    network.add_node("client", region="internet")
    network.add_node("gup.store.com", region="internet")
    store = SyntheticAdapter("gup.store.com", seed=5)
    users = ["user%03d" % index for index in range(6)]
    for user in users:
        store.add_user(user, ["presence"])
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(capacity=8, default_ttl_ms=5_000.0),
        enforce_policies=False,
    )
    server.join(store)
    executor = QueryExecutor(network, server)
    ctx = _ctx()
    latencies: List[float] = []
    now = 0.0
    requests = [0, 1, 0, 2, 0, 1, 3, 0, 4, 1, 5, 0]
    for step, user_index in enumerate(requests):
        user = users[user_index]
        path = "/user[@id='%s']/presence" % user
        _fragment, trace, _hit = executor.cached(
            "client", path, ctx, now=now
        )
        latencies.append(trace.elapsed_ms)
        now += 400.0
        if step == 6:
            # A background update fires the invalidation trigger.
            fragment = PNode("presence")
            fragment.append(PNode("status", text="away"))
            store.apply_component(users[0], "presence", fragment)
            server.cache.invalidate(
                "/user[@id='%s']/presence" % users[0]
            )
    # Let every entry expire, then refill once.
    now += 10_000.0
    _fragment, trace, _hit = executor.cached(
        "client", "/user[@id='%s']/presence" % users[0], ctx, now=now
    )
    latencies.append(trace.elapsed_ms)
    return latencies


def e16_sunny_stream() -> List[float]:
    """E16's sunny-day chaining stream: no faults, 40 queries."""
    network, _server, executor = build_split_world()
    latencies: List[float] = []
    now = 0.0
    for _step in range(40):
        _fragment, trace = executor.chaining(
            "client", BOOK, _ctx(), now=now
        )
        latencies.append(trace.elapsed_ms)
        now += 500.0
    return latencies


def e16_degraded_stream() -> List[Tuple[float, int]]:
    """E16's degraded stream: the corporate single point of failure is
    down, so every chaining query pays retry sweeps + backoff against
    the dead store and returns a partial merge. Returns
    ``(elapsed_ms, degraded_parts)`` per query."""
    network, _server, executor = build_split_world()
    network.fail("gup.corp.com")
    results: List[Tuple[float, int]] = []
    now = 0.0
    for _step in range(10):
        _fragment, trace = executor.chaining(
            "client", BOOK, _ctx(), now=now
        )
        results.append((trace.elapsed_ms, trace.degraded_parts))
        now += 500.0
    return results


def e19_batch_stream() -> List[List[float]]:
    """E19's batched pipeline over the split world, shield on.

    One eight-item batch — whole book and slices for a co-worker
    (permitted everything) and a family member (personal slice only),
    a denied stranger, an uncovered component, an unparsable path and
    a within-batch duplicate (a second wave when cached) — replayed
    over five rounds: sunny, repeat (cache hits), corporate store down
    past TTL (degraded items), every store down inside the stale grace
    (stale serves), all restored. Run plain and cached, under the
    default :class:`~repro.core.RetryPolicy` and ``RetryPolicy.none()``.
    Returns ``[elapsed_ms, hops, bytes, retries, failovers,
    stale_serves, degraded_parts]`` per batch."""
    family = RequestContext("mom", relationship="family")
    coworker = RequestContext("colleague", relationship="co-worker")
    stranger = RequestContext("app", relationship="third-party")
    items = [
        (BOOK, coworker),
        (BOOK, family),
        (BOOK, stranger),
        ("/user[@id='u1']/calendar", coworker),
        ("not a path", coworker),
        (BOOK, coworker),
        (PERSONAL, family),
        (CORPORATE, coworker),
    ]
    rounds = (
        (0.0, ()),
        (500.0, ()),
        (3_000.0, ("gup.corp.com",)),
        (6_000.0, STORES),
        (6_500.0, ()),
    )
    requests, contexts = zip(*items)
    rows: List[List[float]] = []
    for policy in (RetryPolicy(), RetryPolicy.none()):
        for use_cache in (False, True):
            network, server, executor = build_split_world(
                stale_grace_ms=60_000.0
            )
            executor.retry_policy = policy
            server.enforce_policies = True
            server.policy_repository.store(PolicyRule(
                "u1", PERSONAL, "permit", relationship_in("family"),
                rule_id="family-personal",
            ))
            server.policy_repository.store(PolicyRule(
                "u1", "/user[@id='u1']", "permit",
                relationship_in("co-worker"), rule_id="coworker-all",
            ))
            for now, down in rounds:
                for store_id in STORES:
                    network.restore(store_id)
                for store_id in down:
                    network.fail(store_id)
                _results, trace = executor.execute_batch(
                    "client", requests, contexts,
                    now=now, use_cache=use_cache,
                )
                rows.append([
                    trace.elapsed_ms, trace.hops, trace.bytes_total,
                    trace.retries, trace.failovers, trace.stale_serves,
                    trace.degraded_parts,
                ])
    return rows


PRESENCE = "/user[@id='u1']/presence"
MDM_NODES = (
    "mdm.us", "mdm.eu", "whitepages", "mdm.carrier", "mdm.isp",
    "mdm.bank",
)
MIRRORS = ("mdm.us", "mdm.eu", "mdm.asia")

#: Oracle row: ``[elapsed_ms, hops, retries, failovers, outcome]``;
#: an operation that raised returned no trace, so only its error class.
MdmRow = List[object]


def _mdm_row(call: Callable[..., Sequence], *args: object,
             **kwargs: object) -> MdmRow:
    try:
        result = call(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the class IS the record
        return [None, None, None, None, type(err).__name__]
    head, trace = result[0], result[1]
    if isinstance(head, list):  # batch: per-item (referral, error)
        outcome = " ".join(
            "ok" if error is None else type(error).__name__
            for _referral, error in head
        )
    elif isinstance(head, int):  # a replication round
        outcome = "applied=%d" % head
    else:  # a referral (and, from the constellation, the mirror used)
        outcome = "ok" + "".join("@%s" % node for node in result[2:])
    return [
        trace.elapsed_ms, trace.hops, trace.retries, trace.failovers,
        outcome,
    ]


def _impair(
    network: Network, nodes: Sequence[str], failed: Sequence[str] = (),
    drops: Optional[Dict[str, int]] = None, loss: float = 0.0,
) -> None:
    """Fail nodes, force drops and set loss on ``client``'s links."""
    for node in failed:
        network.fail(node)
    for node, count in (drops or {}).items():
        network.force_drops("client", node, count)
    if loss:
        for node in nodes:
            network.set_loss("client", node, loss)


def _mdm_server(
    name: str, users: Dict[str, Sequence[str]]
) -> GupsterServer:
    """A shield-on MDM whose users permit third-party applications."""
    server = GupsterServer(name)
    store = SyntheticAdapter("store." + name)
    for user, components in users.items():
        store.add_user(user, list(components))
        server.policy_repository.store(PolicyRule(
            user, "/user[@id='%s']" % user, "permit",
            relationship_in("third-party"), rule_id="apps-" + user,
        ))
    server.join(store)
    return server


def build_mdm_world(seed: int = 31) -> Tuple[
    Network, CentralizedMdm, UserDistributedMdm, HierarchicalMdm
]:
    """The E6 world with the shield on, widened so a batch fans out:
    u1 (carrier; bank-delegated book), u2 (a second MDM, ``mdm.isp``)
    and u3 (unlisted at the bank, no hierarchical primary)."""
    network = Network(seed=seed)
    network.add_node("client", region="internet")
    for node in MDM_NODES:
        network.add_node(node, region="core")
    network.link("client", "mdm.us", base_ms=15.0, jitter_ms=2.0)
    network.link("client", "mdm.eu", base_ms=70.0, jitter_ms=5.0)
    everything = ("presence", "address-book", "game-scores")
    centralized = CentralizedMdm(network, _mdm_server("central", {
        "u1": everything, "u2": ("presence",), "u3": ("presence",),
    }), ["mdm.us", "mdm.eu"])
    distributed = UserDistributedMdm(network, "whitepages")
    distributed.assign(
        "u1", "mdm.carrier", _mdm_server("carrier", {"u1": everything})
    )
    distributed.assign(
        "u2", "mdm.isp", _mdm_server("isp", {"u2": ("presence",)})
    )
    distributed.assign(
        "u3", "mdm.bank", _mdm_server("vault", {"u3": ("presence",)}),
        unlisted=True,
    )
    hierarchical = HierarchicalMdm(network)
    hierarchical.set_primary(
        "u1", "mdm.carrier", _mdm_server("primary", {"u1": ("presence",)})
    )
    hierarchical.delegate("u1", BOOK, "mdm.bank", _mdm_server(
        "bank", {"u1": ("address-book", "game-scores")}
    ))
    hierarchical.set_primary(
        "u2", "mdm.isp", _mdm_server("isp2", {"u2": ("presence",)})
    )
    return network, centralized, distributed, hierarchical


def e6_mdm_stream() -> List[MdmRow]:
    """Section 5.1 lookups under every topology: each of five items
    alone through ``resolve`` and all of them (plus a second MDM's
    user, an unknown user and an unparsable path) through one
    multi-group ``resolve_batch``, across five deterministic fault
    sets; then 40 % loss on the client links under six loss seeds;
    then a mirror/MDM flap on one shared world (health carry-over).
    Every lookup but the flap's runs on a fresh world, so one row's
    outcome cannot shift another's jitter draws."""
    app = _ctx()
    stranger = RequestContext("nosy", relationship="buddy")
    unlisted = "/user[@id='u3']/presence"
    items = [
        (PRESENCE, app),                        # listed / primary answers
        (BOOK, app),                            # delegated to the bank
        (unlisted, app),                        # unlisted / no primary
        ("/user[@id='u1']/calendar", app),      # no coverage
        (PRESENCE, stranger),                   # denied by the shield
    ]
    requests, contexts = zip(*items + [
        ("/user[@id='u2']/presence", app),      # the second group
        ("/user[@id='ghost']/presence", app),   # nobody manages ghost
        ("not a path", app),
    ])
    #: (world seed, failed nodes, forced drops per client link, loss).
    Faults = Tuple[int, Sequence[str], Dict[str, int], float]
    fault_sets: Tuple[Faults, ...] = (
        (31, (), {}, 0.0),
        (31, ("mdm.us", "mdm.carrier"), {}, 0.0),
        (31, MDM_NODES, {}, 0.0),
        (31, (), {"mdm.us": 1, "mdm.eu": 1, "whitepages": 1,
                  "mdm.carrier": 1}, 0.0),
        (31, (), {"mdm.us": 3, "mdm.eu": 3, "mdm.carrier": 1,
                  "mdm.isp": 3, "mdm.bank": 3}, 0.0),
    )

    def lookup(
        topology: int, faults: Faults, batched: bool,
        *args: object, **kwargs: object
    ) -> MdmRow:
        world = build_mdm_world(faults[0])
        _impair(world[0], MDM_NODES, *faults[1:])
        mdm = world[1 + topology]
        return _mdm_row(
            mdm.resolve_batch if batched else mdm.resolve,
            "client", *args, **kwargs
        )

    rows: List[MdmRow] = []
    for topology in range(3):
        for faults in fault_sets:
            for path, context in items:
                rows.append(lookup(topology, faults, False, path, context))
            if topology == 1:
                rows.append(lookup(
                    1, faults, False, unlisted, app, hint="mdm.bank"
                ))
                rows.append(lookup(
                    1, faults, True, requests, contexts,
                    hints={"u3": "mdm.bank"},
                ))
            rows.append(lookup(topology, faults, True, requests, contexts))
        for seed in range(6):
            lossy = (seed, (), {}, 0.4)
            rows.append(lookup(topology, lossy, False, BOOK, app))
            rows.append(lookup(topology, lossy, True, requests, contexts))
    network, centralized, distributed, hierarchical = build_mdm_world()
    for mdm, node in (
        (centralized, "mdm.us"), (distributed, "mdm.carrier"),
        (hierarchical, "mdm.bank"),
    ):
        network.fail(node)
        for step in range(4):
            if step == 2:
                network.restore(node)
            rows.append(_mdm_row(mdm.resolve, "client", BOOK, app))
    return rows


def e14_constellation_stream() -> List[MdmRow]:
    """The E14 mirror constellation: reads at the home, a stale and a
    caught-up mirror, failover past dead and lossy mirrors, and
    replication rounds charged to a trace (one with a mirror down,
    then the catch-up round). One fresh world per row."""
    app = _ctx()

    def world(
        replicated: bool = True, **faults: object
    ) -> Tuple[Network, MirrorConstellation]:
        network = Network(seed=faults.pop("seed", 17))
        network.add_node("client", region="internet")
        for mirror in MIRRORS:
            network.add_node(mirror, region="core")
        constellation = MirrorConstellation(network, list(MIRRORS))
        store = SyntheticAdapter("gup.store.com")
        store.add_user("u1", ["presence"])
        constellation.join_store(store, via="mdm.us")
        if replicated:
            constellation.replicate()
        _impair(network, MIRRORS, **faults)
        return network, constellation

    def read(prefer: Optional[str], **setup: object) -> MdmRow:
        _network, constellation = world(**setup)
        return _mdm_row(
            constellation.resolve, "client", PRESENCE, app, prefer=prefer
        )

    def replicate(
        network: Network, constellation: MirrorConstellation
    ) -> MdmRow:
        trace = network.trace()
        return _mdm_row(
            lambda: (constellation.replicate(trace), trace)
        )

    rows = [
        read("mdm.us", replicated=False),
        read("mdm.eu", replicated=False),               # stale mirror
        read("mdm.eu", replicated=False, failed=["mdm.eu"]),
        read("mdm.eu"),
        read(None),
        read("mdm.eu", failed=["mdm.eu"]),
        read(None, failed=["mdm.us", "mdm.eu"]),
        read(None, failed=MIRRORS),
        read("mdm.eu", drops={"mdm.eu": 1}),
        read("mdm.asia", drops={"mdm.asia": 2}),
        read(None, drops={mirror: 1 for mirror in MIRRORS}),
    ]
    rows.extend(
        read("mdm.eu", seed=seed, loss=0.4) for seed in range(6)
    )
    rows.append(replicate(*world(replicated=False)))
    network, constellation = world(replicated=False, failed=["mdm.asia"])
    rows.append(replicate(network, constellation))
    network.restore("mdm.asia")
    rows.append(replicate(network, constellation))
    return rows


def e16_degraded_query(observed: bool = False) -> Tuple[Network, Trace]:
    """One degraded E16 chaining query (corp store down) — the worked
    example the E18 benchmark exports as a Chrome trace. With
    *observed* the network's span recorder is enabled before the query
    runs, so the returned ``network.recorder`` holds the span tree."""
    network, _server, executor = build_split_world()
    if observed:
        network.enable_observability()
    network.fail("gup.corp.com")
    _fragment, trace = executor.chaining("client", BOOK, _ctx(), now=0.0)
    return network, trace


def reference_streams() -> Dict[str, List]:
    """Every golden stream, keyed by name (see :data:`GOLDEN_STREAMS`)."""
    return {
        "e1": e1_stream(),
        "e7": e7_stream(),
        "e16_sunny": e16_sunny_stream(),
        "e16_degraded": [list(pair) for pair in e16_degraded_stream()],
        "e19_batch": e19_batch_stream(),
        "e6_mdm": e6_mdm_stream(),
        "e14_constellation": e14_constellation_stream(),
    }
