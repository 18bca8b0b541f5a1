"""E18 — observability overhead + latency breakdown (DESIGN.md §4.4).

Two claims to measure, one per test:

* **Zero overhead when disabled.** The span/metrics layer sits under
  the Trace cost model behind ``recorder is None`` fast paths, so with
  observability off every E1/E7/E16 reference stream must be
  **bit-identical** to the golden fixture captured before the layer
  existed (``tests/data/golden_latencies.json``), and with it *on*
  the sampled latencies still must not move — spans observe virtual
  time, they never advance it.

* **The spans explain the latency.** For the degraded E16 chaining
  query (corporate store down: retry sweeps, backoff waits, partial
  merge) the span tree must reconcile — every parent span's duration
  equals the sequential-sum/fork-max of its children — and the
  per-segment breakdown (hop vs compute vs wait vs timeout) must add
  up to the trace's elapsed time.

The CLI adds two checks on the serving process. ``start()+finish()``
on a recorder *at its retention cap* — where a long-lived server
lives — must cost about what it costs on an empty one. And the
garbage row counts the cyclic objects each ``App.handle`` request
leaves for the collector on the demo world, split into profile tree
nodes (``PNode``, gated at 0: trees are acyclic) and everything else.
The pxml work row counts the profile-model calls each ``App.handle``
request makes on a whole-profile world with a change bus: ``byte_size``
(gated at 0: the wall transport never sizes a message), ``serialize``
(gated at <= 1: a response body, or a write's bus record, is rendered
once) and ``canonical_key`` (gated at 0: the parts of a whole-profile
read are distinct components, never value twins), nodes copied per
read (gated at 0: kept trees are frozen and shared) and per write
(reported), mutable nodes published frozen per read (reported) and per
write (gated at 0: the parser builds the fragment frozen), and nodes
serialized fresh per read and per write (reported) and on a warm
cached hit (gated at 0: the entry carries its text). The traces row counts the distinct trace ids among the spans
each ``App.handle`` request records on the demo world (gated at
exactly 1: the request's span tree and the engine's are one trace).
The suspensions row steps each ``App.handle`` coroutine by hand with
``send(None)`` and counts the steps before it returns (gated at
exactly 0: a served request never yields to the event loop, so nothing
else runs between reading a request and writing its response). The
collector row counts the cyclic collector's young, middle and full
passes per 1 000 requests of the garbage probe's mix while an
``AppServer`` is started, so with the world frozen and the serving
thresholds in force; it is reported, not gated.

Artifacts: ``results/e18_trace.json`` (Chrome trace-event JSON of the
degraded query — load it in ``chrome://tracing`` / Perfetto) and
``results/e18_metrics.json`` (registry snapshot). Run standalone with
``python benchmarks/bench_e18_observability.py --smoke`` for the CI
smoke gate (no pytest-benchmark required).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # CLI use without an installed package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
if REPO_ROOT not in sys.path:  # the stream oracle lives in tests/data/
    sys.path.insert(0, REPO_ROOT)

from repro.obs import (  # noqa: E402
    SpanRecorder,
    reconcile,
    to_chrome_trace,
    to_json_snapshot,
    write_chrome_trace,
    write_json_snapshot,
)
from repro.obs.wallclock import WallClock  # noqa: E402
from repro.pxml import FrozenPNode, PNode  # noqa: E402
from repro.serve import AppServer, Request, create_app  # noqa: E402
from tests.data.profile_world import (  # noqa: E402
    PROFILE,
    build_profile_world,
)
from tests.data.pxml_work import FRESH, counting_patches  # noqa: E402
from tests.data.reference import (  # noqa: E402
    BOOK,
    GOLDEN_STREAMS,
    build_split_world,
    e16_degraded_query,
    reference_streams,
)
from repro.access import RequestContext  # noqa: E402

GOLDEN_PATH = os.path.join(
    REPO_ROOT, "tests", "data", "golden_latencies.json"
)
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Leaf span names charged by the Trace layer.
SEGMENTS = ("hop", "compute", "wait")

#: ``start()+finish()`` pairs per timing round, and rounds (best of).
CAP_PAIRS = 1_000
CAP_ROUNDS = 5
#: A span on a full recorder may cost at most this many times one on
#: an empty recorder (the list-rebuilding eviction was ~1000x).
CAP_RATIO_GATE = 3.0

#: ``App.handle`` requests in the garbage probe: chaining reads, cached
#: reads and self-provisions of the demo world's address book.
GARBAGE_REQUESTS = 200

#: ``App.handle`` requests in the traces probe (the garbage probe's
#: mix).
TRACE_REQUESTS = 200

#: ``App.handle`` requests in the suspensions probe (the garbage
#: probe's mix).
SUSPENSION_REQUESTS = 200

#: ``App.handle`` requests in the collector probe (the garbage probe's
#: mix) with an :class:`AppServer` started.
COLLECTOR_REQUESTS = 1_000

#: ``App.handle`` requests in the pxml work probe: whole-profile reads
#: as family (chaining, cached), buddy and a denied stranger, and
#: self-provisions of the address book, in rotation.
PXML_WORK_REQUESTS = 200

#: The profile-model methods the pxml work probe counts, as
#: ``(owner, method, key)``. ``copy`` and ``frozen`` recurse once per
#: node, so their counts are nodes copied into a private mutable tree
#: and mutable nodes published frozen (``FrozenPNode.frozen`` returns
#: the node itself and is not counted). A published tree overrides
#: ``serialize`` (it returns the text it carries), so both classes
#: count; nodes serialized fresh are counted by
#: ``tests.data.pxml_work``.
PXML_WORK_COUNTED = (
    (PNode, "byte_size", "byte_size"),
    (RequestContext, "byte_size", "byte_size"),
    (PNode, "serialize", "serialize"),
    (FrozenPNode, "serialize", "serialize"),
    (PNode, "canonical_key", "canonical_key"),
    (PNode, "copy", "copy"),
    (PNode, "frozen", "frozen"),
)


def load_golden() -> Dict[str, List]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["streams"]


def run_zero_overhead() -> Dict[str, Dict[str, object]]:
    """Replay every reference stream observability-off and compare to
    the golden fixture; then run the degraded query both ways and
    compare the sampled latency. Returns per-check verdicts."""
    verdicts: Dict[str, Dict[str, object]] = {}
    golden = load_golden()
    live = reference_streams()
    for name in GOLDEN_STREAMS:
        verdicts["stream:" + name] = {
            "samples": len(live[name]),
            "identical": live[name] == golden[name],
        }
    _net, silent = e16_degraded_query(observed=False)
    _net, observed = e16_degraded_query(observed=True)
    verdicts["observed-vs-silent"] = {
        "samples": 1,
        "identical": (
            observed.elapsed_ms == silent.elapsed_ms
            and observed.log == silent.log
        ),
    }
    return verdicts


def _segment_breakdown(recorder, trace) -> Dict[str, float]:
    """Total virtual ms per charge-leaf name within one trace."""
    totals = {segment: 0.0 for segment in SEGMENTS}
    for span in recorder.spans_for(trace.trace_id):
        if span.name in totals:
            totals[span.name] += span.duration_ms
    return totals


def run_breakdown() -> List[Tuple[str, float, Dict[str, float], int]]:
    """E1's four query patterns, observability on: per-pattern
    ``(label, elapsed_ms, per-segment totals, mismatches)``."""
    network, _server, executor = build_split_world()
    recorder = network.enable_observability()
    context = RequestContext("app", relationship="third-party")
    rows: List[Tuple[str, float, Dict[str, float], int]] = []

    def measure(label: str, run) -> None:
        trace = run()
        rows.append((
            label,
            trace.elapsed_ms,
            _segment_breakdown(recorder, trace),
            len(reconcile(recorder, trace.trace_id)),
        ))

    measure("referral", lambda: executor.referral(
        "client", BOOK, context)[1])
    measure("chaining", lambda: executor.chaining(
        "client", BOOK, context)[1])
    measure("recruiting", lambda: executor.recruiting(
        "client", BOOK, context)[1])
    measure("cached (miss)", lambda: executor.cached(
        "client", BOOK, context, now=0.0)[1])
    measure("cached (hit)", lambda: executor.cached(
        "client", BOOK, context, now=10.0)[1])
    return rows


def run_degraded_artifacts(
    out_dir: Optional[str] = None,
) -> Dict[str, object]:
    """The degraded E16 query with spans on: reconcile the tree,
    break its latency down per segment, and (optionally) write the
    Chrome trace + metrics snapshot artifacts."""
    network, trace = e16_degraded_query(observed=True)
    recorder = network.recorder
    assert recorder is not None
    segments = _segment_breakdown(recorder, trace)
    summary: Dict[str, object] = {
        "elapsed_ms": trace.elapsed_ms,
        "segments": segments,
        "segment_sum_ms": sum(segments.values()),
        "degraded_parts": trace.degraded_parts,
        "open_spans": len(recorder.open_spans()),
        "mismatches": len(reconcile(recorder, trace.trace_id)),
        "spans": len(recorder),
        "chrome_events": len(to_chrome_trace(recorder)["traceEvents"]),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_chrome_trace(
            recorder, os.path.join(out_dir, "e18_trace.json")
        )
        write_json_snapshot(
            network.metrics,
            os.path.join(out_dir, "e18_metrics.json"),
            recorder=recorder,
        )
        snapshot = to_json_snapshot(network.metrics, recorder)
        counters = snapshot["counters"]
        summary["net_counters"] = {
            name: value for name, value in counters.items()
            if name.startswith("net.") and value
        }
    return summary


def _span_pair_us(recorder: SpanRecorder) -> float:
    clock = WallClock()
    for i in range(CAP_PAIRS):
        recorder.finish(recorder.start("probe", float(i)), float(i))
    return clock.now_ms() * 1000.0 / CAP_PAIRS


def run_span_cost_at_cap() -> Dict[str, float]:
    """us per ``start()+finish()`` on an empty recorder and on one
    filled to ``max_spans`` (every further start evicts), best of
    :data:`CAP_ROUNDS` rounds each."""
    full = SpanRecorder()
    while len(full) < full.max_spans:
        full.leaf("fill", 0.0, 0.0)
    empty_us = min(
        _span_pair_us(SpanRecorder()) for _ in range(CAP_ROUNDS)
    )
    at_cap_us = min(_span_pair_us(full) for _ in range(CAP_ROUNDS))
    return {
        "max_spans": full.max_spans,
        "empty_us": empty_us,
        "at_cap_us": at_cap_us,
        "ratio": at_cap_us / empty_us,
    }


def _garbage_probe_requests(count: int) -> List[Request]:
    book = "/user[@id='u1']/address-book"
    requests = []
    for index in range(count):
        if index % 4 == 3:
            fragment = (
                "<address-book><item type='personal'><entry name='g%d'>"
                "<phone number='%d'/></entry></item></address-book>"
                % (index, index)
            )
            requests.append(Request(
                "POST", "/v1/provision",
                headers={"x-requester": "u1", "x-relationship": "self",
                         "x-purpose": "provision"},
                body=json.dumps({"path": book, "fragment": fragment})
                .encode(),
            ))
        else:
            requests.append(Request("GET", "/v1/query", params={
                "path": book,
                "pattern": "chaining" if index % 4 == 0 else "cached",
            }))
    return requests


def run_request_garbage() -> Dict[str, float]:
    """Cyclic objects reclaimed per ``App.handle`` request: the
    collector off and ``DEBUG_SAVEALL`` on, one collection after
    :data:`GARBAGE_REQUESTS` requests (bus drained after each)."""
    app = create_app()
    requests = _garbage_probe_requests(GARBAGE_REQUESTS)

    async def serve() -> None:
        for request in requests:
            await app.handle(request)
            app.jobs.drain_bus_once()

    flags, enabled, kept = gc.get_debug(), gc.isenabled(), list(gc.garbage)
    gc.disable()
    try:
        gc.collect()
        del gc.garbage[:]
        gc.set_debug(gc.DEBUG_SAVEALL)
        asyncio.run(serve())
        gc.collect()
        pnodes = sum(1 for obj in gc.garbage if isinstance(obj, PNode))
        other = len(gc.garbage) - pnodes
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = kept
        if enabled:
            gc.enable()
    return {
        "requests": GARBAGE_REQUESTS,
        "pnode_per_req": pnodes / float(GARBAGE_REQUESTS),
        "other_per_req": other / float(GARBAGE_REQUESTS),
    }


def run_traces_per_request() -> Dict[str, float]:
    """Distinct trace ids among the spans each ``App.handle`` request
    records, over :data:`TRACE_REQUESTS` requests (bus drained after
    each, outside the count)."""
    app = create_app()
    recorder = app.world.recorder
    counts: List[int] = []

    async def serve() -> None:
        for request in _garbage_probe_requests(TRACE_REQUESTS):
            recorder.clear()
            await app.handle(request)
            counts.append(len(recorder.trace_ids()))
            app.jobs.drain_bus_once()

    asyncio.run(serve())
    return {
        "requests": TRACE_REQUESTS,
        "traces_per_req": sum(counts) / float(len(counts)),
        "min": min(counts),
        "max": max(counts),
    }


def run_suspensions_per_request() -> Dict[str, float]:
    """Event-loop suspensions per ``App.handle`` request: each
    coroutine is stepped by hand with ``send(None)`` until it returns,
    over :data:`SUSPENSION_REQUESTS` requests (bus drained after
    each)."""
    app = create_app()
    counts: List[int] = []
    for request in _garbage_probe_requests(SUSPENSION_REQUESTS):
        step = app.handle(request)
        suspended = 0
        try:
            while True:
                step.send(None)
                suspended += 1
        except StopIteration:
            pass
        counts.append(suspended)
        app.jobs.drain_bus_once()
    return {
        "requests": SUSPENSION_REQUESTS,
        "suspensions_per_req": sum(counts) / float(len(counts)),
        "max": max(counts),
    }


def run_collector_passes() -> Dict[str, float]:
    """Collector passes by generation per 1 000 ``App.handle``
    requests of the garbage probe's mix, while an :class:`AppServer`
    is started (world frozen, serving thresholds in force) and the bus
    drained after each request."""
    app = create_app()
    passes = [0, 0, 0]

    def count(phase: str, info: Dict[str, int]) -> None:
        if phase == "stop":
            passes[info["generation"]] += 1

    async def serve() -> None:
        server = AppServer(app, port=0)
        await server.start()
        gc.callbacks.append(count)
        try:
            for request in _garbage_probe_requests(COLLECTOR_REQUESTS):
                await app.handle(request)
                app.jobs.drain_bus_once()
        finally:
            gc.callbacks.remove(count)
            await server.stop()

    asyncio.run(serve())
    per_1k = 1_000.0 / COLLECTOR_REQUESTS
    return {
        "requests": COLLECTOR_REQUESTS,
        "young_per_1k": passes[0] * per_1k,
        "middle_per_1k": passes[1] * per_1k,
        "full_per_1k": passes[2] * per_1k,
    }


def _pxml_work_requests(count: int) -> List[Request]:
    def read(requester: str, relationship: str, pattern: str) -> Request:
        return Request(
            "GET", "/v1/query",
            headers={"x-requester": requester,
                     "x-relationship": relationship},
            params={"path": PROFILE, "pattern": pattern},
        )

    requests = []
    for index in range(count):
        kind = index % 5
        if kind == 4:
            fragment = (
                "<address-book><item id='w%d'><name>Zoé &amp; %d</name>"
                "</item></address-book>" % (index, index)
            )
            requests.append(Request(
                "POST", "/v1/provision",
                headers={"x-requester": "u1", "x-relationship": "self",
                         "x-purpose": "provision"},
                body=json.dumps({
                    "path": PROFILE + "/address-book", "fragment": fragment,
                }).encode(),
            ))
        else:
            requests.append((
                read("u2", "family", "chaining"),
                read("u2", "family", "cached"),
                read("u3", "buddy", "cached"),
                read("u9", "third-party", "chaining"),
            )[kind])
    return requests


def run_pxml_work() -> Dict[str, float]:
    """Profile-model calls per ``App.handle`` request over
    :data:`PXML_WORK_REQUESTS` requests on the whole-profile world with
    a change bus; ``copy``, ``frozen`` and fresh nodes serialized per
    read and per write (provision); and the fresh nodes of a warm
    cached hit, the third of three family cached reads after the
    mix."""
    app = create_app(build_profile_world(with_bus=True))
    requests = _pxml_work_requests(PXML_WORK_REQUESTS)
    #: (method name | FRESH, "read" | "write" | "warm") -> count
    calls: Dict[Tuple[str, str], int] = {}
    kind = "read"

    def record(key: str, amount: int) -> None:
        calls[(key, kind)] = calls.get((key, kind), 0) + amount

    async def serve() -> None:
        nonlocal kind
        for request in requests:
            kind = "write" if request.method == "POST" else "read"
            await app.handle(request)
            app.jobs.drain_bus_once()
        warm = requests[1]
        for kind in ("warm-up", "warm-up", "warm"):
            await app.handle(warm)

    patches = counting_patches(PXML_WORK_COUNTED, record)
    originals = [
        (target, name, getattr(target, name)) for target, name, _ in patches
    ]
    try:
        for target, name, replacement in patches:
            setattr(target, name, replacement)
        asyncio.run(serve())
    finally:
        for target, name, original in reversed(originals):
            setattr(target, name, original)
    writes = sum(1 for request in requests if request.method == "POST")
    per_kind = {"read": len(requests) - writes, "write": writes}
    result: Dict[str, float] = {
        "requests": PXML_WORK_REQUESTS, "reads": per_kind["read"],
        "writes": writes,
        "fresh_warm_hit": calls.get((FRESH, "warm"), 0),
    }
    for name in ("byte_size", "serialize", "canonical_key"):
        total = calls.get((name, "read"), 0) + calls.get((name, "write"), 0)
        result["%s_per_req" % name] = total / float(PXML_WORK_REQUESTS)
    for name in ("copy", "frozen", FRESH):
        for which, count in per_kind.items():
            result["%s_per_%s" % (name, which)] = (
                calls.get((name, which), 0) / float(count)
            )
    return result


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_e18_zero_overhead(benchmark, report):
    verdicts = benchmark.pedantic(
        run_zero_overhead, rounds=1, iterations=1
    )
    rows = [
        (name, check["samples"],
         "bit-identical" if check["identical"] else "DRIFTED")
        for name, check in sorted(verdicts.items())
    ]
    report(
        "e18_zero_overhead",
        "E18 — observability is free when off, invisible when on",
        ["check", "samples", "verdict"],
        rows,
        notes=(
            "Streams replay the E1/E7/E16 reference worlds with the "
            "recorder detached and must equal the pre-observability "
            "golden fixture float-for-float; observed-vs-silent runs "
            "the degraded E16 query with spans on and asserts the "
            "sampled latency (and the log) did not move."
        ),
    )
    assert all(check["identical"] for check in verdicts.values())


def test_e18_span_breakdown(benchmark, report):
    def run():
        return run_breakdown(), run_degraded_artifacts(RESULTS_DIR)

    rows, degraded = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        (label, "%.2f" % elapsed,
         "%.2f" % segments["hop"], "%.2f" % segments["compute"],
         "%.2f" % segments["wait"], mismatches)
        for label, elapsed, segments, mismatches in rows
    ]
    table.append((
        "chaining DEGRADED",
        "%.2f" % degraded["elapsed_ms"],
        "%.2f" % degraded["segments"]["hop"],
        "%.2f" % degraded["segments"]["compute"],
        "%.2f" % degraded["segments"]["wait"],
        degraded["mismatches"],
    ))
    report(
        "e18_span_breakdown",
        "E18 — where each query pattern's latency goes (virtual ms)",
        ["pattern", "elapsed", "hop", "compute", "wait", "mismatch"],
        table,
        notes=(
            "Per-segment columns sum the span *leaves* — total work, "
            "not wall-clock — so parallel patterns (referral fans "
            "out; chaining fetches parts concurrently) show hop work "
            "above elapsed; the critical-path accounting is the "
            "'mismatch' column (spans whose duration the tree fails "
            "to explain under sequential-sum/fork-max) — all zero. "
            "The degraded row's hop segment carries the dead store's "
            "detection timeouts and its wait segment %.1f ms of "
            "retry backoff. Chrome trace artifact: "
            "results/e18_trace.json." % degraded["segments"]["wait"]
        ),
    )
    for _label, elapsed, segments, mismatches in rows:
        assert mismatches == 0
        # Work >= critical path; equal only when nothing forked.
        assert sum(segments.values()) >= elapsed - 1e-6
    assert degraded["mismatches"] == 0
    assert degraded["open_spans"] == 0
    assert degraded["degraded_parts"] > 0
    assert degraded["segments"]["wait"] > 0  # backoff is visible


# ---------------------------------------------------------------------------
# CLI (CI smoke gate: no pytest-benchmark dependency)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """Run the E18 checks standalone; exit non-zero on any failure."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast verdict-only run (what CI gates on)",
    )
    parser.add_argument(
        "--out", default=RESULTS_DIR,
        help="directory for e18_trace.json / e18_metrics.json",
    )
    args = parser.parse_args(argv)
    failures = 0
    verdicts = run_zero_overhead()
    for name, check in sorted(verdicts.items()):
        ok = bool(check["identical"])
        failures += 0 if ok else 1
        print("%-28s %4d sample(s)  %s" % (
            name, check["samples"], "OK" if ok else "DRIFTED",
        ))
    degraded = run_degraded_artifacts(args.out)
    tree_ok = (
        degraded["mismatches"] == 0 and degraded["open_spans"] == 0
    )
    failures += 0 if tree_ok else 1
    print(
        "degraded query: %.2f ms over %d span(s), "
        "%d open, %d mismatch(es) -> %s" % (
            degraded["elapsed_ms"], degraded["spans"],
            degraded["open_spans"], degraded["mismatches"],
            "OK" if tree_ok else "FAILED",
        )
    )
    cap = run_span_cost_at_cap()
    cap_ok = cap["ratio"] <= CAP_RATIO_GATE
    failures += 0 if cap_ok else 1
    print(
        "span at the cap (%d): %.2f us vs %.2f us empty, "
        "ratio %.2f (gate <= %.1f) -> %s" % (
            cap["max_spans"], cap["at_cap_us"], cap["empty_us"],
            cap["ratio"], CAP_RATIO_GATE, "OK" if cap_ok else "FAILED",
        )
    )
    garbage = run_request_garbage()
    garbage_ok = garbage["pnode_per_req"] == 0
    failures += 0 if garbage_ok else 1
    print(
        "cyclic garbage per request (%d App.handle, demo world): "
        "PNode %.2f (gate 0), other %.2f -> %s" % (
            garbage["requests"], garbage["pnode_per_req"],
            garbage["other_per_req"], "OK" if garbage_ok else "FAILED",
        )
    )
    traces = run_traces_per_request()
    traces_ok = traces["min"] == traces["max"] == 1
    failures += 0 if traces_ok else 1
    print(
        "traces per request (%d App.handle, demo world): %.2f "
        "(gate == 1.00, min %d, max %d) -> %s" % (
            traces["requests"], traces["traces_per_req"],
            traces["min"], traces["max"], "OK" if traces_ok else "FAILED",
        )
    )
    suspensions = run_suspensions_per_request()
    suspensions_ok = suspensions["max"] == 0
    failures += 0 if suspensions_ok else 1
    print(
        "event-loop suspensions per request (%d App.handle, demo "
        "world): %.2f (gate == 0, max %d) -> %s" % (
            suspensions["requests"], suspensions["suspensions_per_req"],
            suspensions["max"], "OK" if suspensions_ok else "FAILED",
        )
    )
    collector = run_collector_passes()
    # Reported, not gated: pass counts follow the interpreter's own
    # allocation pattern, so they can differ between the Python
    # versions CI runs.
    print(
        "collector passes per 1000 requests (%d App.handle, demo world, "
        "AppServer started): young %.1f, middle %.1f, full %.1f "
        "(reported)" % (
            collector["requests"], collector["young_per_1k"],
            collector["middle_per_1k"], collector["full_per_1k"],
        )
    )
    work = run_pxml_work()
    work_ok = (
        work["byte_size_per_req"] == 0
        and work["serialize_per_req"] <= 1
        and work["canonical_key_per_req"] == 0
        and work["copy_per_read"] == 0
        and work["frozen_per_write"] == 0
        and work["fresh_warm_hit"] == 0
    )
    failures += 0 if work_ok else 1
    # Copies per write, nodes published frozen per read and fresh
    # nodes per read and per write are reported: a read that misses
    # the cache publishes the root it merged, and renders what no kept
    # tree carries yet.
    print(
        "pxml work per request (%d App.handle, whole-profile world): "
        "byte_size %.2f (gate 0), serialize %.2f (gate <= 1), "
        "canonical_key %.2f (gate 0), copied nodes per read %.2f "
        "(gate 0) / per write %.2f, frozen nodes per read %.2f / per "
        "write %.2f (gate 0), fresh nodes serialized per read %.2f / "
        "per write %.2f / on a warm cached hit %d (gate 0) -> %s" % (
            work["requests"], work["byte_size_per_req"],
            work["serialize_per_req"], work["canonical_key_per_req"],
            work["copy_per_read"], work["copy_per_write"],
            work["frozen_per_read"], work["frozen_per_write"],
            work["%s_per_read" % FRESH], work["%s_per_write" % FRESH],
            work["fresh_warm_hit"],
            "OK" if work_ok else "FAILED",
        )
    )
    if not args.smoke:
        for label, elapsed, segments, mismatches in run_breakdown():
            print("%-16s %8.2f ms  (hop %.2f, compute %.2f, "
                  "wait %.2f, %d mismatch)" % (
                      label, elapsed, segments["hop"],
                      segments["compute"], segments["wait"],
                      mismatches))
    print("artifacts: %s" % os.path.abspath(args.out))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
