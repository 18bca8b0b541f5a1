"""The sim ≡ real equivalence gate (ISSUE 9 satellite + tentpole
deliverable).

One sans-io program, two drivers: :class:`SimnetDriver` (virtual
time) and :class:`WallTransport` (asyncio, ``time_scale=0``). For any
request trace and any fault schedule, both drivers must walk the
program through the *same* decision sequence — same values, same
shield outcomes, same degraded parts, same error classes. Hypothesis
draws the traces and the faults.

Worlds are twins: same :class:`SyntheticAdapter` seeds, same node
names, same retry policy. The ``now`` per request is supplied
explicitly on both sides so cache-TTL decisions can't diverge.

A constraint this test leans on (also documented in DESIGN.md §4.9):
the two referral parts have *disjoint* store sets (personal on
alpha∥beta, corporate only on corp). Wall fork legs run concurrently
while sim legs run sequentially, so legs touching a *shared* endpoint
could observe its health ledger in different orders. With disjoint
sets per part, each endpoint's health is driven by exactly one leg
and the interleaving cannot matter.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RequestContext
from repro.core import ComponentCache, GupsterServer, RetryPolicy
from repro.pxml import parse_path
from repro.sansio import (
    SansIoQueryEngine,
    StandaloneQueryHost,
    decision_of,
)
from repro.serve import FaultPlan, WallTransport
from repro.simnet import Network
from repro.simnet.driver import SimnetDriver
from repro.workloads import SyntheticAdapter

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"

STORES = ("gup.alpha.com", "gup.beta.com", "gup.corp.com")
SERVER = "gupster"
CLIENT = "client"

#: Links whose forced-drop budgets the fault schedule may charge.
DROPPABLE_LINKS = tuple(
    (SERVER, store) for store in STORES
) + ((CLIENT, SERVER),)


def build_server():
    server = GupsterServer(
        SERVER,
        cache=ComponentCache(
            capacity=16, default_ttl_ms=60_000.0,
            stale_grace_ms=120_000.0,
        ),
        enforce_policies=False,
    )
    for store_id, seed in (
        ("gup.alpha.com", 5), ("gup.beta.com", 5), ("gup.corp.com", 9),
    ):
        adapter = SyntheticAdapter(store_id, seed=seed)
        adapter.add_user("u1", ["address-book"])
        server.join(adapter, user_ids=[])
    server.register_component(PERSONAL, "gup.alpha.com")
    server.register_component(PERSONAL, "gup.beta.com")
    server.register_component(CORPORATE, "gup.corp.com")
    return server


def build_sim_side(failed, drops, retry_policy):
    network = Network(seed=16)
    network.add_node(SERVER, region="core")
    network.add_node(CLIENT, region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    for node in failed:
        network.fail(node)
    for (a, b), count in drops.items():
        network.force_drops(a, b, count)
    server = build_server()
    host = StandaloneQueryHost(
        server, server_node=SERVER, retry_policy=retry_policy
    )
    return network, server, SansIoQueryEngine(host)


def build_wall_side(failed, drops, retry_policy):
    faults = FaultPlan()
    for node in failed:
        faults.fail(node)
    for (a, b), count in drops.items():
        faults.force_drops(a, b, count)
    server = build_server()
    host = StandaloneQueryHost(
        server, server_node=SERVER, retry_policy=retry_policy
    )
    engine = SansIoQueryEngine(host)
    transport = WallTransport(server.adapters, faults=faults)
    return transport, engine


def batch_decision(items):
    decisions = [
        decision_of(item.error if item.error is not None else item)
        for item in items
    ]
    return {
        "ok": all(decision["ok"] for decision in decisions),
        "items": decisions,
    }


def run_request(pattern, path, context, now, runner, engine):
    record = decision_of
    if pattern == "batch":
        # A cached batch with a within-batch duplicate (second wave).
        program = engine.batch(
            CLIENT, [path, BOOK, path], [context] * 3, now, True
        )
        record = batch_decision
    elif pattern == "cached":
        program = engine.cached(CLIENT, parse_path(path), context, now)
    elif pattern == "referral":
        program = engine.referral(CLIENT, parse_path(path), context, now)
    else:
        program = engine.chain(CLIENT, parse_path(path), context, now)
    try:
        return record(runner(program))
    except Exception as err:  # noqa: BLE001 - the decision IS the record
        return decision_of(err)


requests_strategy = st.lists(
    st.tuples(
        st.sampled_from(["chaining", "cached", "referral", "batch"]),
        st.sampled_from([BOOK, PERSONAL, CORPORATE]),
    ),
    min_size=1, max_size=6,
)

faults_strategy = st.fixed_dictionaries({
    "failed": st.sets(st.sampled_from(STORES)),
    "drops": st.dictionaries(
        st.sampled_from(DROPPABLE_LINKS),
        st.integers(min_value=1, max_value=3),
        max_size=len(DROPPABLE_LINKS),
    ),
    "max_attempts": st.integers(min_value=1, max_value=3),
})


@settings(max_examples=40, deadline=None)
@given(requests=requests_strategy, faults=faults_strategy)
def test_sim_and_wall_drivers_agree(requests, faults):
    retry_policy = RetryPolicy(
        max_attempts=faults["max_attempts"], base_backoff_ms=10.0
    )
    network, sim_server, sim_engine = build_sim_side(
        faults["failed"], faults["drops"], retry_policy
    )
    transport, wall_engine = build_wall_side(
        faults["failed"], faults["drops"], retry_policy
    )

    sim_decisions = []
    wall_decisions = []
    for index, (pattern, path) in enumerate(requests):
        context = RequestContext("app")
        now = float(index) * 1000.0
        sim_decisions.append(run_request(
            pattern, path, context, now,
            lambda p: SimnetDriver(sim_server.adapters).run(
                p, network.trace()
            ),
            sim_engine,
        ))
        wall_decisions.append(run_request(
            pattern, path, context, now,
            lambda p: asyncio.run(transport.run(p)),
            wall_engine,
        ))

    assert sim_decisions == wall_decisions


@settings(max_examples=15, deadline=None)
@given(
    requests=requests_strategy,
    slow=st.dictionaries(
        st.sampled_from(DROPPABLE_LINKS),
        st.floats(min_value=1.0, max_value=50.0),
        max_size=2,
    ),
)
def test_slow_links_never_change_decisions(requests, slow):
    """Wall-side latency faults (slow replies) change *timing*, never
    values: the decisions match a fault-free sim baseline."""
    retry_policy = RetryPolicy(max_attempts=2, base_backoff_ms=10.0)
    network, sim_server, sim_engine = build_sim_side(
        set(), {}, retry_policy
    )
    faults = FaultPlan()
    for (a, b), extra in slow.items():
        faults.slow_link(a, b, extra)
    server = build_server()
    host = StandaloneQueryHost(
        server, server_node=SERVER, retry_policy=retry_policy
    )
    wall_engine = SansIoQueryEngine(host)
    transport = WallTransport(server.adapters, faults=faults)

    for index, (pattern, path) in enumerate(requests):
        context = RequestContext("app")
        now = float(index) * 1000.0
        sim_record = run_request(
            pattern, path, context, now,
            lambda p: SimnetDriver(sim_server.adapters).run(
                p, network.trace()
            ),
            sim_engine,
        )
        wall_record = run_request(
            pattern, path, context, now,
            lambda p: asyncio.run(transport.run(p)),
            wall_engine,
        )
        assert sim_record == wall_record
        assert sim_record["ok"]
