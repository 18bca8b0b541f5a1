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
  degraded items and stale serves, under two retry policies.

``bench_e18_observability.py`` and ``tests/test_obs_determinism.py``
replay these streams — observability disabled — and assert bit-identical
equality with the goldens; the benchmark then replays them enabled and
asserts the sampled latencies *still* match (spans observe, never
perturb).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.access import PolicyRule, RequestContext, relationship_in
from repro.core import (
    ComponentCache,
    GupsterServer,
    QueryExecutor,
    RetryPolicy,
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
    "reference_streams",
]

BOOK = "/user[@id='u1']/address-book"
PERSONAL = "/user[@id='u1']/address-book/item[@type='personal']"
CORPORATE = "/user[@id='u1']/address-book/item[@type='corporate']"
#: The split world's stores (see :func:`build_split_world`).
STORES = ("gup.alpha.com", "gup.beta.com", "gup.corp.com")

#: Stream names, in report order.
GOLDEN_STREAMS = ("e1", "e7", "e16_sunny", "e16_degraded", "e19_batch")


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
    }
