"""E17 — mutation kill matrix: what each gupcheck rule kills that tier-1 does not.

ROADMAP 3b asks the analyzer (28% of ``src/``) to justify its size.
The instrument is a *rule-fires x tests-fail* matrix over hand-seeded
bugs: the same behaviour observed from two vantage points, with the
disagreements as the finding. Each row of :data:`MUTANTS` is one bug
as data — a file under ``src/`` and one ``old`` -> ``new`` text
replacement. For each row the harness

1. copies ``src/`` to a temp dir and applies the patch (``old`` must
   occur **exactly once** in the shipped file, or the run aborts — a
   matrix whose mutants no longer apply proves nothing);
2. runs the analyzer once over the copy with every rule and records
   the **static kills** per rule: violations present on the mutant and
   absent on the clean tree, compared by rule + path + message (line
   numbers shift, messages do not);
3. with ``--runtime``, runs tier-1 minus ``tests/test_gupcheck*.py``
   against the copy under ``-x`` and records killed/survived plus the
   first failing test id.

``--check FILE`` re-derives the static column and exits 1 on any
*lost* kill: a mutant some rule caught in FILE that no rule catches
now. CI runs it so a rule edit cannot lose a kill unnoticed.
``--table FILE`` prints the per-rule summary of a recorded matrix
(EXPERIMENTS.md E17): mutants killed, mutants killed by that rule
*only* (no other rule fired and tier-1 survived), lines in the rule's
own module.

    python benchmarks/bench_e17_killmatrix.py --runtime \\
        --output benchmarks/results/e17_killmatrix.json
    python benchmarks/bench_e17_killmatrix.py \\
        --check benchmarks/results/e17_killmatrix.json
    python benchmarks/bench_e17_killmatrix.py \\
        --table benchmarks/results/e17_killmatrix.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if __name__ == "__main__":  # CLI use without an installed package
    sys.path.insert(0, SRC_ROOT)

#: What ``--runtime`` runs against each mutant.
RUNTIME_SUITE = "tier-1 minus tests/test_gupcheck*.py, -x"

#: The mutants. ``relpath`` is relative to ``src/``; ``old`` occurs
#: exactly once in that file and is replaced by ``new``.
MUTANTS: List[Dict[str, str]] = [
    {
        "name": "cache_hit_no_recheck",
        "bug_class": "cache hit answered without re-running the shield",
        "relpath": "repro/core/server.py",
        "old": (
            "        if cached is None:\n"
            "            return None\n"
            "        self._shield_cached(parsed, context)\n"
            "        return cached\n"
        ),
        "new": (
            "        if cached is None:\n"
            "            return None\n"
            "        return cached\n"
        ),
    },
    {
        "name": "stale_no_recheck",
        "bug_class": "stale-serve answered without re-running the shield",
        "relpath": "repro/core/server.py",
        "old": (
            "        if stale is None:\n"
            "            return None\n"
            "        self._shield_cached(parsed, context)\n"
            "        return stale\n"
        ),
        "new": (
            "        if stale is None:\n"
            "            return None\n"
            "        return stale\n"
        ),
    },
    {
        "name": "engine_cached_raw_cache",
        "bug_class": "sans-io program probes the raw cache, not the "
                     "shielded facade (the PR 1 bypass)",
        "relpath": "repro/sansio/engine.py",
        "old": (
            '        yield Compute(host.CACHE_COMPUTE_MS, "cache probe")\n'
            "        cached = host.server.cache_lookup(path, context, now)\n"
        ),
        "new": (
            '        yield Compute(host.CACHE_COMPUTE_MS, "cache probe")\n'
            "        cached = host.server.cache.get(\n"
            "            path, now, scope=context.cache_scope()\n"
            "        )\n"
        ),
    },
    {
        "name": "chain_coverage_resolve",
        "bug_class": "sans-io program builds its referral from the "
                     "coverage map, bypassing the shielded resolve",
        "relpath": "repro/sansio/engine.py",
        "old": (
            '                            "chained request")\n'
            "        yield Compute(host.RESOLVE_COMPUTE_MS, "
            '"rewrite+policy+sign")\n'
            "        referral = self._resolve_tracked(path, context, now)\n"
        ),
        "new": (
            '                            "chained request")\n'
            "        yield Compute(host.RESOLVE_COMPUTE_MS, "
            '"rewrite+policy+sign")\n'
            "        referral = host.server.coverage.resolve(path)\n"
        ),
    },
    {
        "name": "bus_no_enforce",
        "bug_class": "bus delivery forwards deltas without the shield",
        "relpath": "repro/bus/listeners.py",
        "old": (
            "        decision = self._pep.enforce(self._request, context)\n"
            "        for record in records:\n"
            "            if decision.permit:\n"
        ),
        "new": (
            "        for record in records:\n"
            "            if True:\n"
        ),
    },
    {
        "name": "fed_no_enforce",
        "bug_class": "federation export writes to the foreign "
                     "directory without the shield",
        "relpath": "repro/federation/reconciler.py",
        "old": (
            "        decision = self.pep.enforce("
            "entry.gup_path(user_id), context)\n"
            "        if not decision.permit:\n"
        ),
        "new": (
            "        decision = None\n"
            "        if decision is not None:\n"
        ),
    },
    {
        "name": "sync_no_enforce",
        "bug_class": "sync session releases every item to the device",
        "relpath": "repro/sync/syncml.py",
        "old": (
            "        cached = self._decisions.get(item_id)\n"
            "        if cached is None:\n"
            "            decision = self.pep.enforce(\n"
            "                self._item_path(item_id), self.context\n"
            "            )\n"
            "            cached = bool(decision.permit)\n"
            "            self._decisions[item_id] = cached\n"
            "        return cached\n"
        ),
        "new": "        return True\n",
    },
    # Rule-overlap rows (recorded, not acted on here): which of
    # sim-blocking / determinism / sans-io-purity fire on each.
    {
        "name": "simnet_wall_sleep",
        "bug_class": "wall-clock sleep inside a simnet event handler",
        "relpath": "repro/simnet/engine.py",
        "old": (
            "            self.now = when\n"
            "            self._dispatching = True\n"
        ),
        "new": (
            "            self.now = when\n"
            "            import time\n"
            "            time.sleep(0.0)\n"
            "            self._dispatching = True\n"
        ),
    },
    {
        "name": "core_wall_clock",
        "bug_class": "wall-clock read inside the sans-io core",
        "relpath": "repro/core/signing.py",
        "old": "        expires = now + self.freshness_ms\n",
        "new": (
            "        import time\n"
            "        expires = time.time() + self.freshness_ms\n"
        ),
    },
    {
        "name": "workload_module_random",
        "bug_class": "module-level random state in a seeded workload",
        "relpath": "repro/workloads/synthetic.py",
        "old": "        point = self._rng.random()\n",
        "new": "        point = random.random()\n",
    },
    # One row (at least) per remaining rule, so a rule edit that
    # loses *any* rule's kill shows up in ``--check``.
    {
        "name": "service_imports_store",
        "bug_class": "a service imports a native store at runtime, "
                     "around the adapter layer",
        "relpath": "repro/services/portability.py",
        "old": "from repro.adapters.base import GupAdapter\n",
        "new": (
            "from repro.adapters.base import GupAdapter\n"
            "from repro.stores.hlr import HLR\n"
        ),
    },
    {
        "name": "pxml_bare_valueerror",
        "bug_class": "pxml raises a bare ValueError past "
                     "`except ReproError`",
        "relpath": "repro/pxml/path.py",
        "old": (
            '            raise PathSyntaxError('
            '"a path needs at least one step")\n'
        ),
        "new": (
            '            raise ValueError('
            '"a path needs at least one step")\n'
        ),
    },
    {
        "name": "cache_get_unscoped",
        "bug_class": "cache read without the requester scope (the "
                     "PR 1 bypass at the key level)",
        "relpath": "repro/core/server.py",
        "old": (
            "        cached = self.cache.get(\n"
            "            parsed, now, scope=context.cache_scope()\n"
            "        )\n"
        ),
        "new": "        cached = self.cache.get(parsed, now)\n",
    },
    {
        "name": "poll_sweep_same_instant",
        "bug_class": "poll tick and poll-state sweep armed for the "
                     "same virtual instants, both writing _poll_state",
        "relpath": "repro/core/subscription.py",
        "old": (
            "        self.sim.schedule_at(\n"
            "            max(until, self.sim.now) + interval_ms,\n"
            "            lambda: self._poll_state.pop(poller_id, None),\n"
            "        )\n"
        ),
        "new": (
            "        self.sim.every(\n"
            "            interval_ms,\n"
            "            lambda: self._poll_state.pop(poller_id, None),\n"
            "            until=until,\n"
            "        )\n"
        ),
    },
    {
        "name": "wave_over_listener_set",
        "bug_class": "a wave iterates its listeners as a set and "
                     "schedules hand-overs in hash order",
        "relpath": "repro/bus/bus.py",
        "old": (
            "        self.waves += 1\n"
            "        for listener in self._listeners:\n"
        ),
        "new": (
            "        self.waves += 1\n"
            "        for listener in set(self._listeners):\n"
        ),
    },
    {
        "name": "bus_handover_steps_sim",
        "bug_class": "a scheduled wave hand-over re-enters the event "
                     "loop",
        "relpath": "repro/bus/bus.py",
        "old": "        listener.deliver(batch, self.sim.now)\n",
        "new": (
            "        self.sim.step()\n"
            "        listener.deliver(batch, self.sim.now)\n"
        ),
    },
    {
        "name": "fed_poll_span_leaks_on_error",
        "bug_class": "a hand-opened span is entered only on the "
                     "fall-through path; the exception edges return "
                     "with it open",
        "relpath": "repro/federation/reconciler.py",
        "old": (
            "        try:\n"
            "            trace.hop(self.node, self.foreign.name, "
            "POLL_BYTES)\n"
            "            changes = self.foreign.changes_since("
            "self._cursor)\n"
            "            trace.hop(\n"
            "                self.foreign.name, self.node,\n"
            "                POLL_BYTES + sum(c.byte_size() "
            "for c in changes),\n"
            "            )\n"
            "        except ForeignResyncRequiredError:\n"
            "            # Cursor fell behind the retained window: "
            "the incremental\n"
            "            # stream is incomplete, so re-derive from "
            "full state.\n"
            "            self.full_resync()\n"
            "            return\n"
            "        except (NetworkError, StoreError):\n"
            "            self.poll_failures += 1\n"
            "            return\n"
        ),
        "new": (
            '        poll = trace.span("fed.poll", '
            "foreign=self.foreign.name)\n"
            "        try:\n"
            "            trace.hop(self.node, self.foreign.name, "
            "POLL_BYTES)\n"
            "            changes = self.foreign.changes_since("
            "self._cursor)\n"
            "            trace.hop(\n"
            "                self.foreign.name, self.node,\n"
            "                POLL_BYTES + sum(c.byte_size() "
            "for c in changes),\n"
            "            )\n"
            "        except ForeignResyncRequiredError:\n"
            "            self.full_resync()\n"
            "            return\n"
            "        except (NetworkError, StoreError):\n"
            "            self.poll_failures += 1\n"
            "            return\n"
            "        with poll:\n"
            '            trace.scope.set("changes", len(changes))\n'
        ),
    },
    {
        "name": "fed_listener_stale_cursor",
        "bug_class": "a listener trims the log to its own cursor, "
                     "then replays from the pre-compact snapshot",
        "relpath": "repro/federation/listener.py",
        "old": (
            "        for record in records:\n"
            "            self.routed += 1\n"
            "            self.reconciler.note_gup_delta(record)\n"
        ),
        "new": (
            "        held = bus.cursor(self.name)\n"
            "        for record in records:\n"
            "            self.routed += 1\n"
            "            self.reconciler.note_gup_delta(record)\n"
            "        for shard_id in sorted(held):\n"
            "            log = bus.log_for(shard_id)\n"
            "            log.compact(held[shard_id])\n"
            "            for record in log.since(held[shard_id]):\n"
            "                self.reconciler.note_gup_delta(record)\n"
        ),
    },
    {
        "name": "subscriber_decision_outlives_delivery",
        "bug_class": "a subscriber keeps its shield decision across "
                     "deliveries (a revocation never takes effect)",
        "relpath": "repro/bus/listeners.py",
        "old": (
            "        decision = self._pep.enforce(self._request, context)\n"
        ),
        "new": (
            '        decision = getattr(self, "_decision", None)\n'
            "        if decision is None:\n"
            "            decision = self._pep.enforce(self._request, context)\n"
            "            self._decision = decision\n"
        ),
    },
    # A second mutant for each rule whose first one was also a tier-1
    # kill, aimed at a bug tier-1 does not exercise: a rule that still
    # kills nothing uniquely has not earned its lines.
    {
        "name": "fed_round_reenters_sim",
        "bug_class": "a sync round drains the event loop from inside "
                     "its own scheduled tick",
        "relpath": "repro/federation/reconciler.py",
        "old": "        self.rounds += 1\n",
        "new": (
            "        self.rounds += 1\n"
            "        self.sim.run(until=self.sim.now)\n"
        ),
    },
    {
        "name": "cache_put_ttl_unscoped",
        "bug_class": "a per-component-TTL cache write without the "
                     "requester scope",
        "relpath": "repro/core/server.py",
        "old": (
            "            self.cache.put(parsed, fragment, now, "
            "ttl_ms=ttl, scope=scope)\n"
        ),
        "new": "            self.cache.put(parsed, fragment, now, ttl_ms=ttl)\n",
    },
    {
        "name": "schema_bad_occurrence_valueerror",
        "bug_class": "a schema declaration raises a bare ValueError "
                     "past `except ReproError`",
        "relpath": "repro/pxml/schema.py",
        "old": '            raise SchemaError("bad occurrence %r" % occurs)\n',
        "new": '            raise ValueError("bad occurrence %r" % occurs)\n',
    },
    {
        "name": "fed_retry_recurrence_same_tick",
        "bug_class": "reject retries get their own recurrence at the "
                     "sync interval, tied with the round on `_dirty`",
        "relpath": "repro/federation/reconciler.py",
        "old": (
            "        self._timer = self.sim.every(self.interval_ms, "
            "self.sync_round)\n"
        ),
        "new": (
            "        self._timer = self.sim.every(self.interval_ms, "
            "self.sync_round)\n"
            "        self.sim.every(self.interval_ms, self._retry_due)\n"
        ),
    },
    {
        "name": "batch_stale_raw_cache",
        "bug_class": "a batch item's stale serve probes the raw cache, "
                     "not the shielded facade",
        "relpath": "repro/sansio/engine.py",
        "old": (
            "                stale = host.server.cache_stale_lookup("
            "path, context, now)\n"
        ),
        "new": (
            "                stale = host.server.cache.get_stale("
            "path, now, scope=context.cache_scope())\n"
        ),
    },
    {
        "name": "engine_debug_print",
        "bug_class": "a debug print left in a sans-io program (stdout "
                     "I/O on every cache miss)",
        "relpath": "repro/sansio/engine.py",
        "old": '        yield SpanSet("cache", "miss")\n',
        "new": (
            '        yield SpanSet("cache", "miss")\n'
            '        print("cache miss", path)\n'
        ),
    },
    {
        "name": "engine_failover_span_leak",
        "bug_class": "a sans-io program fails over to the next store "
                     "with the failed store's span still open",
        "relpath": "repro/sansio/engine.py",
        "old": (
            "                except TRANSIENT_ERRORS as err:\n"
            "                    yield SpanClose()\n"
            "                    last_error = err\n"
        ),
        "new": (
            "                except TRANSIENT_ERRORS as err:\n"
            "                    last_error = err\n"
        ),
    },
    {
        "name": "driver_run_skips_unwind",
        "bug_class": "the driver loop neither unwinds what a program "
                     "left open nor refuses a program that returned "
                     "with a span open",
        "relpath": "repro/simnet/driver.py",
        "old": (
            "        finally:\n"
            "            leaked = scope.unwind(depth)\n"
            "            program.close()\n"
            "        if leaked:\n"
            "            raise RuntimeError(\n"
            '                "program returned with %d open span(s)" '
            "% leaked\n"
            "            )\n"
        ),
        "new": (
            "        finally:\n"
            "            program.close()\n"
        ),
    },
    {
        "name": "invalidate_skips_unkeyed",
        "bug_class": "a write for one user leaves the cache entries "
                     "whose path binds no user id",
        "relpath": "repro/core/cache.py",
        "old": (
            "                *self._by_user.get(user, ()), "
            "*self._by_user.get(None, ()),\n"
        ),
        "new": "                *self._by_user.get(user, ()),\n",
    },
    # Served-path waste taken off the profile model: the clone that
    # skips the constructor must still own its attrs, and a payload
    # sized only when a driver asks must still be charged.
    {
        "name": "copy_shares_attrs",
        "bug_class": "a cloned node shares its source's attrs dict",
        "relpath": "repro/pxml/node.py",
        "old": "        dup.attrs = dict(self.attrs)\n",
        "new": "        dup.attrs = self.attrs\n",
    },
    {
        "name": "send_ignores_payload",
        "bug_class": "a Send's size leaves out its payload, so the "
                     "simulator undercharges every sized message",
        "relpath": "repro/sansio/intents.py",
        "old": (
            "        if self.payload is None:\n"
            "            return self.fixed_bytes\n"
            "        return self.fixed_bytes + self.payload.byte_size()\n"
        ),
        "new": "        return self.fixed_bytes\n",
    },
    # Leaks: state that grows with traffic, or outlives the operation
    # that made it. The runtime side decides these: the soak in
    # tests/test_soak.py (no container grows from N to 4N operations;
    # quiescing hands the fault model, the bus cursors and the
    # subscription table back at their boot size) and the caps in
    # tests/test_growth_bounds.py.
    {
        "name": "delivery_window_untrimmed",
        "bug_class": "the hub's delivery audit window loses its trim",
        "relpath": "repro/core/subscription.py",
        "old": (
            "        self.dropped_deliveries += trim_oldest(\n"
            "            self.max_deliveries, self.deliveries\n"
            "        )\n"
        ),
        "new": "",
    },
    {
        "name": "latency_factor_never_cleared",
        "bug_class": "clearing a latency spike stores the neutral "
                     "factor instead of dropping the entry",
        "relpath": "repro/simnet/faults.py",
        "old": "            self._latency_factors.pop(name, None)\n",
        "new": "            self._latency_factors[name] = factor\n",
    },
    {
        "name": "bus_detach_keeps_cursor",
        "bug_class": "a detached listener's bus cursor is never "
                     "dropped (one per HTTP subscribe/cancel)",
        "relpath": "repro/bus/bus.py",
        "old": "        del self._cursors[listener.name]\n",
        "new": "",
    },
    {
        "name": "cache_keeps_emptied_buckets",
        "bug_class": "the cache's per-user index keeps a bucket after "
                     "its last entry is dropped",
        "relpath": "repro/core/cache.py",
        "old": (
            "        if not bucket:\n"
            "            del self._by_user[user]\n"
        ),
        "new": "",
    },
    # The run-scanning XML parser matches names with a regex whose
    # negative lookahead keeps every match maximal; without it a name
    # gives characters back, and "<iXid='1'/>" parses as tag "iX" with
    # an attribute instead of failing. No rule looks at regex text: the
    # differential property against the frozen character-at-a-time
    # parser (tests/test_pxml_parse_differential.py) is what kills it.
    {
        "name": "parse_name_backtracks",
        "bug_class": "the XML parser's name pattern loses its "
                     "lookahead and backtracks into shorter names",
        "relpath": "repro/pxml/parse.py",
        "old": '_NAME = NAME_PATTERN + "(?![" + NAME_CHARS + "])"\n',
        "new": "_NAME = NAME_PATTERN\n",
    },
    # Published profile trees are frozen so readers can share them
    # instead of copying: the component cache keeps ``fragment.frozen()``
    # and hands that one tree to every hit. Kept mutable, a hit is a
    # private copy again and nothing fails on a tamper — but the kept
    # tree is no longer frozen, which the served-flow property
    # (tests/test_published_trees.py) and the cache's read-only test
    # see. No rule looks at freezing.
    {
        "name": "cache_put_keeps_mutable",
        "bug_class": "the component cache stores a fragment without "
                     "freezing it",
        "relpath": "repro/core/cache.py",
        "old": "            fragment.frozen(),\n",
        "new": "            fragment,\n",
    },
    # A frozen node's attributes are a dict that refuses writes; with
    # ``__setitem__`` back, ``attrs[key] = value`` changes a published
    # tree every reader shares. tests/test_pxml_frozen.py kills it.
    {
        "name": "frozen_attrs_writable",
        "bug_class": "the read-only attribute map of a frozen node "
                     "accepts item assignment",
        "relpath": "repro/pxml/node.py",
        "old": "    __setitem__ = _refuse\n",
        "new": "",
    },
    # A published tree carries its compact text and returns it from
    # then on; served for ``indent=`` too, a pretty rendering comes
    # back compact once the tree was rendered compact. The serializer
    # differential and the frozen-tree contract kill it.
    {
        "name": "frozen_text_served_pretty",
        "bug_class": "a frozen node returns its cached compact text "
                     "when asked for the indented form",
        "relpath": "repro/pxml/node.py",
        "old": (
            "        if indent is not None:\n"
            "            return _pretty(self, indent)\n"
            "        return _wire_of(self)\n"
        ),
        "new": "        return _wire_of(self)\n",
    },
    # A mutable spine splices each frozen child as the text that child
    # carries; splicing the text of another child serves a sibling
    # twice. The serializer differential's mixed trees and the spine
    # test in tests/test_pxml_frozen.py kill it.
    {
        "name": "splice_stale_child_text",
        "bug_class": "the spine splices a text cached for a different "
                     "child",
        "relpath": "repro/pxml/node.py",
        "old": (
            "                        _wire_of(child) if child.__class__ "
            "is FrozenPNode\n"
        ),
        "new": (
            "                        _wire_of(children[0]) if "
            "child.__class__ is FrozenPNode\n"
        ),
    },
    # The parser publishes what it builds: every element a FrozenPNode
    # at its end tag. Handing back a mutable copy of each element with
    # children reads the same and serializes the same, so only the
    # parsed-tree contract in tests/test_pxml_frozen.py sees it.
    {
        "name": "parse_returns_mutable",
        "bug_class": "the parser builds mutable PNodes instead of "
                     "published trees",
        "relpath": "repro/pxml/parse.py",
        "old": (
            "                    node = frozen_node(tag, attrs, None, "
            "tuple(children))\n"
        ),
        "new": (
            "                    node = frozen_node(tag, attrs, None, "
            "tuple(children)).copy()\n"
        ),
    },
]

Finding = Tuple[str, str, str]


def mutated_source(row: Dict[str, str], src_root: str = SRC_ROOT) -> str:
    """The shipped file with *row*'s patch applied; raises when
    ``old`` does not occur exactly once."""
    path = os.path.join(src_root, row["relpath"])
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    count = source.count(row["old"])
    if count != 1:
        raise SystemExit(
            "killmatrix: mutant %s: `old` occurs %d time(s) in %s "
            "(must be exactly 1)" % (row["name"], count, row["relpath"])
        )
    return source.replace(row["old"], row["new"])


def findings(src_copy: str) -> Set[Finding]:
    """(rule, path, message) of every active violation, all rules."""
    from repro.analysis import Analyzer

    report = Analyzer().analyze_paths([src_copy])
    if report.errors:
        raise SystemExit(
            "killmatrix: analyzer could not parse %s" % report.errors
        )
    return {(v.rule, v.path, v.message) for v in report.violations}


def static_kills(
    src_copy: str, clean: Set[Finding]
) -> Dict[str, List[str]]:
    """rule -> sorted ``path: message`` findings the mutant adds."""
    kills: Dict[str, List[str]] = {}
    for rule, path, message in sorted(findings(src_copy) - clean):
        kills.setdefault(rule, []).append("%s: %s" % (path, message))
    return kills


def runtime_verdict(src_copy: str) -> Dict[str, Any]:
    """Run the runtime suite against the mutant copy."""
    env = dict(os.environ, PYTHONPATH=src_copy)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
         "-p", "no:cacheprovider",
         "--ignore-glob=tests/test_gupcheck*.py", "tests"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    if proc.returncode not in (0, 1) and first is None:
        raise SystemExit(
            "killmatrix: pytest exited %d without a failing test:\n%s"
            % (proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:])
        )
    return {
        "killed": proc.returncode != 0,
        "first_failure": first.group(1) if first else None,
    }


def build_matrix(runtime: bool) -> Dict[str, Any]:
    from repro.analysis.rules import ALL_RULES

    patched = {row["name"]: mutated_source(row) for row in MUTANTS}
    rows: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="killmatrix-") as scratch:
        clean_copy = os.path.join(scratch, "clean", "src")
        shutil.copytree(
            SRC_ROOT, clean_copy,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        clean = findings(clean_copy)
        for row in MUTANTS:
            copy = os.path.join(scratch, row["name"], "src")
            shutil.copytree(clean_copy, copy)
            target = os.path.join(copy, row["relpath"])
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(patched[row["name"]])
            entry: Dict[str, Any] = {
                "name": row["name"],
                "bug_class": row["bug_class"],
                "relpath": row["relpath"],
                "static": static_kills(copy, clean),
            }
            if runtime:
                entry["runtime"] = runtime_verdict(copy)
            rows.append(entry)
            sys.stderr.write(
                "killmatrix: %-26s static=%s%s\n" % (
                    row["name"],
                    ",".join(sorted(entry["static"])) or "-",
                    "" if not runtime else " runtime=%s" % (
                        entry["runtime"],
                    ),
                )
            )
            shutil.rmtree(os.path.dirname(copy))
    return {
        "experiment": "e17_killmatrix",
        "rules": [rule.name for rule in ALL_RULES],
        "runtime_suite": RUNTIME_SUITE if runtime else None,
        "clean_tree_findings": len(clean),
        "mutants": rows,
    }


def lost_kills(
    recorded: Dict[str, Any], current: Dict[str, Any]
) -> List[str]:
    """Mutants some rule caught in *recorded* that none catches now."""
    now = {row["name"]: row for row in current["mutants"]}
    lost: List[str] = []
    for row in recorded["mutants"]:
        if not row["static"]:
            continue
        if row["name"] not in now or not now[row["name"]]["static"]:
            lost.append(row["name"])
    return lost


def rule_table(recorded: Dict[str, Any]) -> str:
    """Markdown per-rule summary of a recorded (``--runtime``) matrix."""
    import inspect

    from repro.analysis.rules import ALL_RULES

    lines = [
        "| rule | mutants killed | killed by this rule only "
        "| lines of rule code |",
        "|---|---|---|---|",
    ]
    for rule_class in ALL_RULES:
        killed = [
            row for row in recorded["mutants"]
            if rule_class.name in row["static"]
        ]
        only = [
            row["name"] for row in killed
            if len(row["static"]) == 1 and not row["runtime"]["killed"]
        ]
        with open(inspect.getsourcefile(rule_class) or "",
                  "r", encoding="utf-8") as handle:
            loc = len(handle.readlines())
        lines.append("| `%s` | %d | %s | %d |" % (
            rule_class.name, len(killed),
            "%d (%s)" % (
                len(only), ", ".join("`%s`" % name for name in only)
            ) if only else "0",
            loc,
        ))
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--runtime", action="store_true",
        help="also run %s against every mutant (minutes)" % RUNTIME_SUITE,
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the matrix JSON to FILE (default: stdout)",
    )
    parser.add_argument(
        "--check", metavar="FILE", default=None,
        help="re-derive the static column and exit 1 if a mutant "
             "caught in FILE is caught by no rule now",
    )
    parser.add_argument(
        "--table", metavar="FILE", default=None,
        help="print the per-rule markdown summary of the matrix in FILE",
    )
    options = parser.parse_args(argv)

    if options.table is not None:
        with open(options.table, "r", encoding="utf-8") as handle:
            sys.stdout.write(rule_table(json.load(handle)))
        return 0
    if options.check is not None:
        with open(options.check, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        lost = lost_kills(recorded, build_matrix(runtime=False))
        for name in lost:
            sys.stderr.write("killmatrix: LOST static kill: %s\n" % name)
        sys.stdout.write(
            "killmatrix: %d mutant(s) checked against %s, %d lost "
            "kill(s)\n" % (len(recorded["mutants"]), options.check, len(lost))
        )
        return 1 if lost else 0

    text = json.dumps(
        build_matrix(options.runtime), indent=2, sort_keys=True
    ) + "\n"
    if options.output is None:
        sys.stdout.write(text)
    else:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
