"""Span-tree goldens for the simulated query patterns.

Every Section 5.2 pattern, the cached read in its three outcomes
(miss, hit, stale serve), a batch, an enter-once write, a failover
with a retry, a hand-written fork/join and one federation sync round
run on their deterministic worlds with the span recorder attached.
Each recorded span is reduced to its name, its parent's name, its
trace and lane, its virtual start and end, its attributes and its
events, in creation order; the E18 degraded query is pinned as the
whole Chrome export. The fixture ``tests/data/golden_span_trees.json``
must be reproduced exactly — float equality, not approximation — by
any change to how traces keep their span stack.

Regenerate with ``PYTHONPATH=src python -m tests.test_span_tree_golden``
and review the diff.
"""

import json
import os
from typing import Any, Callable, Dict, List

import pytest

from repro.access import (
    PolicyEnforcementPoint,
    PolicyRepository,
    PolicyRule,
    RequestContext,
)
from repro.bus import ChangeBus
from repro.core import RetryPolicy
from repro.federation import (
    FederationListener,
    ForeignDirectory,
    GupAttributeStore,
    MappingEntry,
    MappingTable,
    Reconciler,
)
from repro.obs import SpanRecorder, to_chrome_trace
from repro.pxml import parse
from repro.simnet import Network, Simulator
from tests.data.reference import (
    BOOK,
    CORPORATE,
    PERSONAL,
    build_split_world,
    e16_degraded_query,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_span_trees.json"
)

CLIENT = "client"


def _ctx() -> RequestContext:
    return RequestContext("app", relationship="third-party")


def span_rows(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """The recorder's spans in creation order, each reduced to what
    a trace viewer shows: no ids, parents by name."""
    names = {span.span_id: span.name for span in recorder.spans}
    return [
        {
            "name": span.name,
            "parent": names.get(span.parent_id)
            if span.parent_id is not None else None,
            "trace": span.trace_id,
            "tid": span.tid,
            "start": span.start_ms,
            "end": span.end_ms,
            "attrs": span.attrs,
            "events": [
                [event.name, event.at_ms, event.attrs]
                for event in span.events
            ],
        }
        for span in recorder.spans
    ]


def _observed_split_world(**kwargs: Any):
    network, server, executor = build_split_world(**kwargs)
    return network.enable_observability(), network, server, executor


def referral() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.referral(CLIENT, BOOK, _ctx(), now=0.0)
    return recorder


def chain() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.chaining(CLIENT, BOOK, _ctx(), now=0.0)
    return recorder


def cached_miss_then_hit() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.cached(CLIENT, BOOK, _ctx(), now=0.0)
    executor.cached(CLIENT, BOOK, _ctx(), now=10.0)
    return recorder


def cached_stale() -> SpanRecorder:
    recorder, network, _server, executor = _observed_split_world(
        stale_grace_ms=10_000.0
    )
    executor.cached(CLIENT, BOOK, _ctx(), now=0.0)
    for store in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
        network.fail(store)
    executor.cached(CLIENT, BOOK, _ctx(), now=3_000.0)
    return recorder


def recruiting() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.recruiting(CLIENT, BOOK, _ctx(), now=0.0)
    return recorder


def direct() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.direct(
        CLIENT,
        [("gup.alpha.com", PERSONAL), ("gup.corp.com", CORPORATE)],
        now=0.0,
    )
    return recorder


def batch() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.execute_batch(
        CLIENT, [BOOK, PERSONAL, CORPORATE], [_ctx()] * 3, now=0.0,
        use_cache=True,
    )
    return recorder


def provision() -> SpanRecorder:
    recorder, _network, _server, executor = _observed_split_world()
    executor.provision(
        CLIENT, PERSONAL,
        parse(
            "<item type='personal'><entry name='golden'>"
            "<phone number='555'/></entry></item>"
        ),
        RequestContext("u1", relationship="self", purpose="provision"),
        now=0.0,
    )
    return recorder


def failover_with_retry() -> SpanRecorder:
    recorder, network, _server, executor = _observed_split_world()
    executor.retry_policy = RetryPolicy(
        max_attempts=3, base_backoff_ms=25.0, multiplier=2.0,
        max_backoff_ms=100.0,
    )
    network.fail("gup.alpha.com")
    network.force_drops("gupster", "gup.corp.com", 1)
    executor.chaining(CLIENT, BOOK, _ctx(), now=0.0)
    return recorder


def fork_join() -> SpanRecorder:
    network = Network(seed=7)
    for node in ("a", "b", "c"):
        network.add_node(node)
    recorder = network.enable_observability()
    trace = network.trace()
    with trace.span("fan.out", width=2) as outer:
        trace.hop("a", "b", 200, note="lead")
        left, right = trace.fork(), trace.fork()
        left.hop("b", "c", 400)
        with right.span("leg", side="right"):
            right.compute(1.5, note="think")
            right.hop("b", "a", 100)
            right.event("checked", ok=True)
        trace.join([left, right])
        outer.set("legs", 2)
    trace.wait(3.0, note="settle")
    return recorder


def federation_round() -> SpanRecorder:
    """One reconciler round pushing a GUP write out (self/name) and
    importing a foreign one (mail) — the round's ``pairs`` attribute
    is set through the trace."""
    sim = Simulator()
    network = Network()
    for node in ("gupster", "fed-conn", "corp-ad"):
        network.add_node(node)
    recorder = network.enable_observability()
    bus = ChangeBus(sim, network, "gupster")
    gup = GupAttributeStore(sim, bus=bus)
    foreign = ForeignDirectory("corp-ad", sim)
    table = MappingTable([
        MappingEntry("self/email", "mail", "both"),
        MappingEntry("self/name", "displayName", "out"),
    ])
    repo = PolicyRepository()
    repo.store(PolicyRule("u1", "/user[@id='u1']/self/name", "permit"))
    reconciler = Reconciler(
        "fed-conn", gup, foreign, table, network,
        PolicyEnforcementPoint(repo), interval_ms=200.0,
    )
    bus.attach(FederationListener("fed", reconciler))
    gup.write("u1", "self/name", "User One")
    foreign.write("u1", "mail", "u1@corp.example")
    sim.run(until=100)
    reconciler.sync_round()
    return recorder


#: Scenario name -> a builder returning the recorder it filled.
SCENARIOS: Dict[str, Callable[[], SpanRecorder]] = {
    "referral": referral,
    "chain": chain,
    "cached_miss_then_hit": cached_miss_then_hit,
    "cached_stale": cached_stale,
    "recruiting": recruiting,
    "direct": direct,
    "batch": batch,
    "provision": provision,
    "failover_with_retry": failover_with_retry,
    "fork_join": fork_join,
    "federation_round": federation_round,
}


def degraded_chrome_export() -> Dict[str, Any]:
    network, _trace = e16_degraded_query(observed=True)
    assert network.recorder is not None
    return to_chrome_trace(network.recorder)


def capture() -> Dict[str, Any]:
    """Everything the fixture pins, JSON-normalised."""
    doc = {
        "span_trees": {
            name: span_rows(build()) for name, build in SCENARIOS.items()
        },
        "e18_degraded_chrome": degraded_chrome_export(),
    }
    return json.loads(json.dumps(doc))


def golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_scenario():
    assert set(golden()["span_trees"]) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_span_tree_matches_the_golden(name):
    rows = json.loads(json.dumps(span_rows(SCENARIOS[name]())))
    assert rows, "scenario %s recorded no spans" % name
    assert rows == golden()["span_trees"][name]


def test_degraded_query_chrome_export_matches_the_golden():
    exported = json.loads(json.dumps(degraded_chrome_export()))
    assert exported == golden()["e18_degraded_chrome"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(capture(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN_PATH)
