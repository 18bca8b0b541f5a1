"""Regression tests for the accounting bugs the E18 audit flushed out,
plus the Trace behaviours the audit pinned (log merging, snapshot
keys)."""

import pytest

from repro.core import ComponentCache, EndpointHealth
from repro.pxml import PNode
from repro.simnet import Network

PATH = "/user[@id='u1']/presence"
OTHER = "/user[@id='u2']/presence"
THIRD = "/user[@id='u3']/presence"
#: One requester for the counter-mechanics tests (the cache requires
#: a non-empty scope on every call).
SCOPE = "audit.test|self"


def fragment(text="here"):
    node = PNode("presence")
    node.append(PNode("status", text=text))
    return node


def assert_healthy(cache):
    assert cache.check_invariants() == []


# -- satellite 2: cache stale-grace counter drift ---------------------------

def test_refreshing_a_within_grace_corpse_counts_an_expiration():
    cache = ComponentCache(
        capacity=8, default_ttl_ms=100.0, stale_grace_ms=1_000.0
    )
    cache.put(PATH, fragment(), now=0.0, scope=SCOPE)
    # Past TTL, within grace: a miss, but the corpse is retained.
    assert cache.get(PATH, now=500.0, scope=SCOPE) is None
    assert len(cache) == 1
    # The refetch lands: the corpse's terminal disposition is an
    # expiration (pre-fix this was silently uncounted).
    cache.put(PATH, fragment("back"), now=500.0, scope=SCOPE)
    assert cache.expirations == 1
    assert cache.replacements == 0
    assert_healthy(cache)


def test_lru_sweep_landing_on_a_corpse_is_an_expiration_not_eviction():
    cache = ComponentCache(
        capacity=2, default_ttl_ms=100.0, stale_grace_ms=1_000.0
    )
    cache.put(PATH, fragment(), now=0.0, scope=SCOPE)
    cache.put(OTHER, fragment(), now=200.0, scope=SCOPE)  # PATH now expired
    cache.put(THIRD, fragment(), now=200.0, scope=SCOPE)  # sweep drops the corpse
    assert cache.expirations == 1
    assert cache.evictions == 0  # capacity pressure was NOT the story
    assert_healthy(cache)


def test_probed_corpse_is_lru_touched_so_serve_stale_can_find_it():
    cache = ComponentCache(
        capacity=2, default_ttl_ms=100.0, stale_grace_ms=1_000.0
    )
    cache.put(PATH, fragment("precious"), now=0.0, scope=SCOPE)
    cache.put(OTHER, fragment(), now=0.0, scope=SCOPE)
    # The failed get() is the refetch attempt; pre-fix the corpse
    # stayed at the LRU front and the next insert evicted exactly the
    # entry serve-stale needed.
    assert cache.get(PATH, now=150.0, scope=SCOPE) is None
    cache.put(THIRD, fragment(), now=150.0, scope=SCOPE)
    served = cache.get_stale(PATH, now=150.0, scope=SCOPE)
    assert served is not None
    assert cache.stale_serves == 1
    assert_healthy(cache)


def test_get_stale_touches_the_corpse_it_serves():
    cache = ComponentCache(
        capacity=2, default_ttl_ms=100.0, stale_grace_ms=1_000.0
    )
    cache.put(PATH, fragment(), now=0.0, scope=SCOPE)
    cache.put(OTHER, fragment(), now=120.0, scope=SCOPE)
    assert cache.get_stale(PATH, now=150.0, scope=SCOPE) is not None
    cache.put(THIRD, fragment(), now=150.0, scope=SCOPE)  # sweep takes OTHER
    assert cache.get_stale(PATH, now=150.0, scope=SCOPE) is not None
    assert_healthy(cache)


def test_invariants_over_a_mixed_workload():
    cache = ComponentCache(
        capacity=4, default_ttl_ms=100.0, stale_grace_ms=200.0
    )
    paths = [PATH, OTHER, THIRD,
             "/user[@id='u4']/presence", "/user[@id='u5']/presence"]
    now = 0.0
    for step in range(60):
        path = paths[step % len(paths)]
        if cache.get(path, now=now, scope=SCOPE) is None:
            if cache.get_stale(path, now=now, scope=SCOPE) is None:
                cache.put(path, fragment(), now=now, scope=SCOPE)
        if step % 17 == 0:
            cache.invalidate(paths[(step + 1) % len(paths)])
        if step % 23 == 0:
            cache.put(path, fragment("again"), now=now, scope=SCOPE)
        now += 60.0
    cache.clear()
    assert_healthy(cache)
    snapshot = cache.counter_snapshot()
    assert snapshot["size"] == 0
    assert snapshot["gets"] == snapshot["hits"] + snapshot["misses"]


# -- satellite 1: EndpointHealth success hoarding ---------------------------

def test_success_keeps_no_per_endpoint_state():
    health = EndpointHealth()
    for index in range(1_000):
        health.success("endpoint-%d" % index)
    # Pre-fix: a _successes dict with 1000 keys nothing ever read.
    assert not hasattr(health, "_successes")
    assert health.snapshot() == {}
    assert health.stats() == {
        "successes": 1_000, "failures": 0, "suspects": 0,
    }


def test_success_totals_survive_in_the_registry():
    health = EndpointHealth()
    health.failure("s1")
    health.failure("s1")
    health.success("s1")
    health.success("s2")
    assert health.metrics.counter("health.successes").value == 2
    assert health.metrics.counter("health.failures").value == 2
    assert health.metrics.gauge("health.suspects").value == 0.0
    assert health.order(["s1", "s2"]) == ["s1", "s2"]


def test_suspect_ordering_still_sinks_failing_endpoints():
    health = EndpointHealth()
    health.failure("s1")
    assert health.is_suspect("s1")
    assert health.order(["s1", "s2"]) == ["s2", "s1"]
    assert health.metrics.gauge("health.suspects").value == 1.0


# -- satellite 3: degraded_responses double/zero count ----------------------

def degraded_world():
    network = Network(seed=1)
    for name in ("a", "b"):
        network.add_node(name)
    return network


def test_two_degraded_branches_count_one_root_response():
    network = degraded_world()
    trace = network.trace()
    left, right = trace.fork(), trace.fork()
    left.note_degraded()
    right.note_degraded()
    # Branches never touch the fleet counter directly...
    assert network.counters.degraded_responses == 0
    trace.join([left, right])
    # ...and the root transition is counted exactly once (pre-fix: 2).
    assert network.counters.degraded_responses == 1
    assert trace.degraded_parts == 2


def test_root_already_degraded_before_join_counts_once():
    network = degraded_world()
    trace = network.trace()
    trace.note_degraded()
    branch = trace.fork()
    branch.note_degraded()
    trace.join([branch])
    assert network.counters.degraded_responses == 1
    assert trace.degraded_parts == 2


def test_root_note_degraded_counts_once_across_repeats():
    network = degraded_world()
    trace = network.trace()
    trace.note_degraded()
    trace.note_degraded(2)
    assert network.counters.degraded_responses == 1
    assert trace.degraded_parts == 3


def test_clean_join_counts_nothing():
    network = degraded_world()
    trace = network.trace()
    branch = trace.fork()
    trace.join([branch])
    assert network.counters.degraded_responses == 0


def test_note_degraded_zero_parts_is_not_a_transition():
    network = degraded_world()
    trace = network.trace()
    trace.note_degraded(0)
    assert network.counters.degraded_responses == 0
    assert not trace.degraded


# -- fork/join log merging and snapshot stability ---------------------------

def linked_world():
    network = Network(seed=1)
    network.add_node("a", processing_ms=0.0)
    network.add_node("b", processing_ms=0.0)
    network.link("a", "b", 10.0, jitter_ms=0.0)
    return network


def test_join_merges_branch_logs_with_pipe_prefix_in_order():
    network = linked_world()
    trace = network.trace()
    trace.compute(1.0, note="before")
    left, right = trace.fork(), trace.fork()
    left.hop("a", "b", 100, note="left-1")
    left.compute(1.0, note="left-2")
    right.hop("b", "a", 100, note="right-1")
    trace.join([left, right])
    trace.compute(1.0, note="after")
    assert trace.log[0].startswith("compute: 1.000 ms (before)")
    merged = trace.log[1:4]
    assert all(line.startswith("| ") for line in merged)
    assert "left-1" in merged[0]
    assert "left-2" in merged[1]
    assert "right-1" in merged[2]
    assert trace.log[4].startswith("compute: 1.000 ms (after)")


def test_snapshot_key_set_is_stable():
    network = linked_world()
    trace = network.trace()
    trace.hop("a", "b", 100)
    snapshot = trace.snapshot()
    assert set(snapshot) == {
        "elapsed_ms", "bytes", "hops", "retries", "failovers",
        "timeouts", "stale_serves", "degraded_parts",
    }
    assert snapshot["bytes"] == 100.0
    assert snapshot["hops"] == 1.0
    assert all(
        isinstance(value, float) for value in snapshot.values()
    )


def test_join_sums_resilience_counters_into_parent_snapshot():
    network = linked_world()
    trace = network.trace()
    branch = trace.fork()
    branch.note_retry()
    branch.note_failover()
    branch.note_stale_serve()
    trace.join([branch])
    snapshot = trace.snapshot()
    assert snapshot["retries"] == 1.0
    assert snapshot["failovers"] == 1.0
    assert snapshot["stale_serves"] == 1.0
