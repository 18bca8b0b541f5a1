"""The sim ≡ real equivalence gate (ISSUE 9 satellite + tentpole
deliverable).

One sans-io program, two drivers: :class:`SimnetDriver` (virtual
time) and :class:`WallTransport` (asyncio). For any
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

The Section 5.1 meta-data lookups ride the same property: the three
MDM topology programs, single and batched, run on a twin of the E6
golden world (``build_mdm_world``) under the same schedule, and must
agree on per-item outcomes, retries and failovers. The same constraint
holds there by construction — no two fan-out legs share an MDM node.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RequestContext
from repro.core import ComponentCache, GupsterServer, RetryPolicy
from repro.core.mdm import Lookup
from repro.pxml import parse_path
from repro.sansio import (
    SansIoQueryEngine,
    StandaloneQueryHost,
    decision_of,
)
from repro.serve import WallTransport
from repro.simnet import FaultState, Network
from repro.simnet.driver import SimnetDriver
from repro.workloads import SyntheticAdapter
from repro.workloads.reference import MDM_NODES, build_mdm_world

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"

STORES = ("gup.alpha.com", "gup.beta.com", "gup.corp.com")
SERVER = "gupster"
CLIENT = "client"

#: The three MDM topologies, in ``build_mdm_world`` order; a
#: ``.batch`` suffix resolves a mixed multi-group batch instead.
MDM_PATTERNS = ("centralized", "user_distributed", "hierarchical")

#: Links whose forced-drop budgets the fault schedule may charge.
DROPPABLE_LINKS = tuple(
    (SERVER, store) for store in STORES
) + ((CLIENT, SERVER),) + tuple((CLIENT, node) for node in MDM_NODES)


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


def build_mdms(retry_policy):
    """The E6 golden world's topologies by pattern name (plus their
    network, which only the sim side drives)."""
    mdm_network, *mdms = build_mdm_world(seed=16)
    for mdm in mdms:
        mdm.retry_policy = retry_policy
    return mdm_network, dict(zip(MDM_PATTERNS, mdms))


def arm(faults_of, failed, drops):
    """The one fault description, applied the one way: *faults_of*
    maps a node to the :class:`FaultState` that decides its links."""
    for node in failed:
        faults_of(node).fail(node)
    for (a, b), count in drops.items():
        faults_of(b).force_drops(a, b, count)


def build_sim_side(failed, drops, retry_policy):
    network = Network(seed=16)
    network.add_node(SERVER, region="core")
    network.add_node(CLIENT, region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    mdm_network, mdms = build_mdms(retry_policy)
    arm(
        lambda node: mdm_network if node in MDM_NODES else network,
        failed, drops,
    )
    server = build_server()
    host = StandaloneQueryHost(
        server, server_node=SERVER, retry_policy=retry_policy
    )

    def run(program, pattern):
        on_mdms = pattern.partition(".")[0] in mdms
        trace = (mdm_network if on_mdms else network).trace()
        result = SimnetDriver(server.adapters).run(program, trace)
        return result, (trace.retries, trace.failovers)

    return run, SansIoQueryEngine(host), mdms


def build_wall_side(failed, drops, retry_policy):
    faults = FaultState()
    arm(lambda node: faults, failed, drops)
    server = build_server()
    host = StandaloneQueryHost(
        server, server_node=SERVER, retry_policy=retry_policy
    )
    engine = SansIoQueryEngine(host)
    return wall_runner(server, faults), engine, build_mdms(retry_policy)[1]


def wall_runner(server, faults):
    transport = WallTransport(server.adapters, faults=faults)

    def marks():
        return tuple(
            transport.metrics.counter(name).value
            for name in ("serve.retries", "serve.failovers")
        )

    def run(program, _pattern):
        before = marks()
        result = asyncio.run(transport.run(program))
        return result, tuple(
            now - then for now, then in zip(marks(), before)
        )

    return run


def batch_decision(items):
    decisions = [
        decision_of(item.error if item.error is not None else item)
        for item in items
    ]
    return {
        "ok": all(decision["ok"] for decision in decisions),
        "items": decisions,
    }


def mdm_request(pattern, path, context, now, runner, mdms):
    """One MDM lookup — *path* alone, or aboard a batch that fans out
    over every MDM and carries unknown, unlisted-but-hinted and
    uncovered items. Records per-item outcomes plus the retry and
    failover marks."""
    name, _, batched = pattern.partition(".")
    requests = [path]
    if batched:
        requests += [
            "/user[@id='u2']/presence", "/user[@id='u3']/presence",
            "/user[@id='ghost']/presence", "/user[@id='u1']/calendar",
        ]
    outcomes = [(None, None)] * len(requests)
    lookup = Lookup(
        CLIENT, now, mdms[name].retry_policy, mdms[name].health,
        outcomes, {"u3": "mdm.bank"},
    )
    items = [
        (index, parse_path(request), context)
        for index, request in enumerate(requests)
    ]
    _none, (retries, failovers) = runner(
        mdms[name].program(lookup, items), pattern
    )
    return {
        "items": [
            referral.render() if error is None
            else (type(error).__name__, str(error))
            for referral, error in outcomes
        ],
        "retries": retries,
        "failovers": failovers,
    }


def run_request(pattern, path, context, now, runner, engine, mdms):
    if pattern.partition(".")[0] in mdms:
        return mdm_request(pattern, path, context, now, runner, mdms)
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
        return record(runner(program, pattern)[0])
    except Exception as err:  # noqa: BLE001 - the decision IS the record
        return decision_of(err)


requests_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            ("chaining", "cached", "referral", "batch") + MDM_PATTERNS
            + tuple(name + ".batch" for name in MDM_PATTERNS)
        ),
        st.sampled_from([BOOK, PERSONAL, CORPORATE]),
    ),
    min_size=1, max_size=6,
)

faults_strategy = st.fixed_dictionaries({
    "failed": st.sets(st.sampled_from(STORES + MDM_NODES)),
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
    sim_side = build_sim_side(
        faults["failed"], faults["drops"], retry_policy
    )
    wall_side = build_wall_side(
        faults["failed"], faults["drops"], retry_policy
    )

    sim_decisions = []
    wall_decisions = []
    for index, (pattern, path) in enumerate(requests):
        context = RequestContext("app")
        now = float(index) * 1000.0
        sim_decisions.append(
            run_request(pattern, path, context, now, *sim_side)
        )
        wall_decisions.append(
            run_request(pattern, path, context, now, *wall_side)
        )

    assert sim_decisions == wall_decisions
