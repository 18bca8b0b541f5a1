"""Spans layered under the Trace cost accumulator (E18 tentpole)."""

import pytest

from repro.errors import NodeUnreachableError, PacketLossError
from repro.obs import reconcile, to_chrome_trace
from repro.simnet import Network


def world():
    """Three nodes, jitter-free links so assertions stay exact."""
    network = Network(seed=1)
    network.add_node("a", processing_ms=0.0)
    network.add_node("b", processing_ms=0.0)
    network.add_node("c", processing_ms=0.0)
    network.link("a", "b", 10.0, jitter_ms=0.0)
    network.link("b", "c", 5.0, jitter_ms=0.0)
    network.link("a", "c", 7.0, jitter_ms=0.0)
    return network


def by_name(recorder, name):
    return [s for s in recorder.spans if s.name == name]


# -- disabled (the default) -------------------------------------------------

def test_disabled_trace_records_nothing_and_span_is_free():
    network = world()
    trace = network.trace()
    with trace.span("query", store="s") as span:
        assert span is None
        trace.hop("a", "b", 100)
        trace.event("ignored")
    assert network.recorder is None
    assert trace.trace_id == 0


def test_enable_then_disable_controls_new_traces_only():
    network = world()
    rec = network.enable_observability()
    assert network.enable_observability() is rec
    trace = network.trace()
    trace.hop("a", "b", 100)
    network.disable_observability()
    silent = network.trace()
    silent.hop("a", "b", 100)
    assert len(rec.spans_for(trace.trace_id)) == 2  # root + hop
    assert silent.trace_id == 0


# -- charge leaves ----------------------------------------------------------

def test_every_charge_records_a_leaf_under_the_root():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    trace.hop("a", "b", 1250, note="req")
    trace.compute(3.0, note="rewrite")
    trace.wait(2.0)
    (root,) = rec.roots(trace.trace_id)
    assert root.name == "trace"
    leaves = rec.children_of(root)
    assert [s.name for s in leaves] == ["hop", "compute", "wait"]
    hop = leaves[0]
    assert hop.attrs == {
        "src": "a", "dst": "b", "bytes": 1250,
        "status": "ok", "note": "req",
    }
    # 10ms base + 1250B / 1250 B-per-ms == 11ms.
    assert hop.duration_ms == pytest.approx(11.0)
    assert rec.open_spans() == []
    assert root.end_ms == trace.elapsed_ms
    assert reconcile(rec, trace.trace_id) == []


def test_failed_hop_leaf_carries_status():
    network = world()
    rec = network.enable_observability()
    network.fail("b")
    trace = network.trace()
    with pytest.raises(NodeUnreachableError):
        trace.hop("a", "b", 100)
    network.restore("b")
    network.force_drops("a", "c", 1)
    with pytest.raises(PacketLossError):
        trace.hop("a", "c", 100)
    statuses = [s.attrs["status"] for s in by_name(rec, "hop")]
    assert statuses == ["unreachable", "lost"]
    # Both charged the detection timeout — the leaves cover it.
    assert by_name(rec, "hop")[0].duration_ms == pytest.approx(
        network.detect_timeout_ms
    )
    assert rec.open_spans() == []


# -- named spans and events -------------------------------------------------

def test_named_span_nests_charges_and_reconciles():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    with trace.span("query.referral", store="b") as span:
        trace.hop("a", "b", 1250)
        trace.event("cache", verdict="miss")
        with trace.span("fetch.store", sweep=1):
            trace.hop("b", "c", 1250)
        span.set("status", "ok")
    (root,) = rec.roots(trace.trace_id)
    (query,) = rec.children_of(root)
    assert query.name == "query.referral"
    assert query.attrs == {"store": "b", "status": "ok"}
    assert [s.name for s in rec.children_of(query)] == [
        "hop", "fetch.store",
    ]
    assert [e.name for e in query.events] == ["cache"]
    assert query.duration_ms == pytest.approx(trace.elapsed_ms)
    assert reconcile(rec, trace.trace_id) == []


def test_span_opens_when_called_and_an_unentered_handle_stays_open():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    handle = trace.span("fed.poll")
    trace.hop("a", "b", 1250)
    (open_span,) = rec.open_spans()
    assert open_span.name == "fed.poll"
    # The charge made after the call already nests under it.
    assert [s.name for s in rec.children_of(open_span)] == ["hop"]
    with handle as span:
        assert span is open_span
    assert rec.open_spans() == []
    assert span.duration_ms == pytest.approx(11.0)


@pytest.mark.parametrize("observed", [False, True])
def test_block_exiting_with_an_inner_span_open_is_refused(observed):
    network = world()
    rec = network.enable_observability() if observed else None
    trace = network.trace()
    with pytest.raises(RuntimeError, match="1 inner span"):
        with trace.span("fed.round"):
            trace.span("fed.poll")  # opened, never closed
            trace.hop("a", "b", 1250)
    assert trace.scope.depth == 0
    if rec is not None:
        assert rec.open_spans() == []


def test_resilience_notes_become_events():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    trace.note_retry()
    trace.note_failover()
    trace.note_stale_serve()
    (root,) = rec.roots(trace.trace_id)
    assert [e.name for e in root.events] == [
        "retry", "failover", "stale_serve",
    ]


# -- fork/join --------------------------------------------------------------

def test_fork_join_branches_get_lanes_and_fork_groups():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    trace.hop("a", "b", 1250)  # 11ms before the fan-out
    left, right = trace.fork(), trace.fork()
    left.hop("b", "c", 1250)   # 6ms
    right.hop("b", "a", 2500)  # 12ms
    trace.join([left, right])
    assert trace.elapsed_ms == pytest.approx(23.0)
    branches = by_name(rec, "branch")
    assert [b.tid for b in branches] == [1, 2]
    assert {b.attrs["fork_group"] for b in branches} == {"j1"}
    # Branch roots start at the parent's fork instant.
    assert all(b.start_ms == pytest.approx(11.0) for b in branches)
    (root,) = rec.roots(trace.trace_id)
    assert root.end_ms == pytest.approx(23.0)
    assert reconcile(rec, trace.trace_id) == []
    assert rec.open_spans() == []


def test_two_joins_get_distinct_fork_groups():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    for _round in range(2):
        branch = trace.fork()
        branch.hop("a", "b", 1250)
        trace.join([branch])
    groups = [b.attrs["fork_group"] for b in by_name(rec, "branch")]
    assert groups == ["j1", "j2"]
    assert reconcile(rec, trace.trace_id) == []


def test_chrome_export_of_a_forked_trace_is_consistent():
    network = world()
    rec = network.enable_observability()
    trace = network.trace()
    left, right = trace.fork(), trace.fork()
    left.hop("a", "b", 1250)
    right.hop("a", "c", 1250)
    trace.join([left, right])
    events = to_chrome_trace(rec)["traceEvents"]
    assert all(e["pid"] == trace.trace_id for e in events)
    assert {e["tid"] for e in events} == {0, 1, 2}
    assert not any(e["args"].get("unfinished") for e in events)
