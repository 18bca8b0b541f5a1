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

The CLI adds a third, wall-clock check: ``start()+finish()`` on a
recorder *at its retention cap* — where a long-lived server lives —
must cost about what it costs on an empty one.

Artifacts: ``results/e18_trace.json`` (Chrome trace-event JSON of the
degraded query — load it in ``chrome://tracing`` / Perfetto) and
``results/e18_metrics.json`` (registry snapshot). Run standalone with
``python benchmarks/bench_e18_observability.py --smoke`` for the CI
smoke gate (no pytest-benchmark required).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":  # CLI use without an installed package
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs import (  # noqa: E402
    SpanRecorder,
    reconcile,
    to_chrome_trace,
    to_json_snapshot,
    write_chrome_trace,
    write_json_snapshot,
)
from repro.obs.wallclock import WallClock  # noqa: E402
from repro.workloads.reference import (  # noqa: E402
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
