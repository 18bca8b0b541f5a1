"""The E18 determinism contract: observability must be free when off
and invisible when on.

The golden fixture ``tests/data/golden_latencies.json`` pins the
E1/E7/E16 reference streams as sampled *before* the observability
layer landed; this module replays them (recorder detached) and
asserts bit-identical equality, then replays the degraded E16 query
with spans enabled and asserts the sampled latency is unchanged and
the span tree fully explains it."""

import json
import os

import pytest

from repro.obs import reconcile, to_chrome_trace
from tests.data.reference import (
    GOLDEN_STREAMS,
    e16_degraded_query,
    reference_streams,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_latencies.json"
)


def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["streams"]


def test_fixture_covers_every_stream():
    assert set(golden()) == set(GOLDEN_STREAMS)


@pytest.mark.parametrize("name", GOLDEN_STREAMS)
def test_streams_are_bit_identical_to_the_goldens(name):
    # == on floats, not approx: the contract is "no latency changed",
    # not "latencies stayed close".
    assert reference_streams()[name] == golden()[name]


def test_observed_degraded_query_samples_identical_latency():
    _network, silent = e16_degraded_query(observed=False)
    network, observed = e16_degraded_query(observed=True)
    assert observed.elapsed_ms == silent.elapsed_ms
    assert observed.bytes_total == silent.bytes_total
    assert observed.hops == silent.hops
    assert observed.degraded_parts == silent.degraded_parts
    assert observed.log == silent.log
    assert network.recorder is not None
    assert len(network.recorder) > 0


def test_observed_degraded_query_span_tree_reconciles():
    network, trace = e16_degraded_query(observed=True)
    recorder = network.recorder
    assert recorder.open_spans() == []
    (root,) = recorder.roots(trace.trace_id)
    assert root.duration_ms == trace.elapsed_ms
    assert reconcile(recorder, trace.trace_id) == []
    # The degradation is visible in the tree: a failed-store sweep
    # left hop leaves with non-ok statuses.
    statuses = {
        span.attrs.get("status")
        for span in recorder.spans_for(trace.trace_id)
        if span.name == "hop"
    }
    assert "unreachable" in statuses


def test_observed_degraded_query_chrome_export_is_valid():
    network, trace = e16_degraded_query(observed=True)
    doc = to_chrome_trace(network.recorder)
    events = doc["traceEvents"]
    assert events, "a degraded query must export spans"
    for event in events:
        assert event["ph"] in ("X", "i")
        assert event["pid"] == trace.trace_id
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
            assert not event["args"].get("unfinished")
    # json round-trip (the file CI archives must be serializable).
    assert json.loads(json.dumps(doc)) == doc


def test_fleet_counters_match_between_observed_and_silent_runs():
    silent_net, _trace = e16_degraded_query(observed=False)
    observed_net, _trace = e16_degraded_query(observed=True)
    assert (
        observed_net.counters.as_dict() == silent_net.counters.as_dict()
    )
    assert silent_net.counters.degraded_responses == 1
