"""gupcheck (repro.analysis): fixture tests per rule, suppression
mechanics, JSON report schema, and the self-check that the shipped
source tree is clean under every rule.

Each rule gets three kinds of fixture: a snippet it must flag, a
snippet it must not flag, and a suppressed snippet (justified
``# gupcheck: ignore[rule] -- why`` comment) it must stay silent on.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import (
    ALL_RULES,
    Analyzer,
    check_source,
    default_rules,
)
from repro.analysis.framework import (
    SUPPRESSION_RULE,
    ModuleInfo,
)
from repro.analysis.rules import (
    CacheKeyScopeRule,
    DeterminismRule,
    ExceptionTotalityRule,
    LayeringRule,
    ShieldEgressRule,
    SpanBalanceRule,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def dedent(source):
    return textwrap.dedent(source).lstrip("\n")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminismRule:
    # Outside simnet, so the blocking-import bans (TestSimBlockingRule)
    # stay out of the clock/RNG counts.
    RELPATH = "repro/core/fixture.py"

    def test_flags_wall_clock_time(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def handler():
                    return time.time()
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "time.time()" in found[0].message
        assert found[0].line == 4

    def test_flags_datetime_now_and_utcnow(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                from datetime import datetime

                def stamp():
                    return datetime.now(), datetime.utcnow()
            """),
            "repro/core/fixture.py",
        )
        assert len(found) == 2

    def test_flags_module_level_random(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import random

                def jitter():
                    return random.random() + random.randint(1, 6)
            """),
            "repro/workloads/fixture.py",
        )
        assert len(found) == 2

    def test_flags_from_random_import(self):
        found = check_source(
            DeterminismRule(),
            "from random import randint\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_injected_seeded_random(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import random

                class Churn:
                    def __init__(self, seed):
                        self._rng = random.Random(seed)

                    def next(self):
                        return self._rng.random()
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            DeterminismRule(),
            "import time\nNOW = time.time()\n",
            "repro/pxml/fixture.py",
        )
        assert found == []

    def test_suppression_with_justification_silences(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def bench():
                    # gupcheck: ignore[determinism] -- host-time benchmark harness
                    return time.time()
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

class TestLayeringRule:
    RELPATH = "repro/services/fixture.py"

    def test_flags_direct_store_from_import(self):
        found = check_source(
            LayeringRule(),
            "from repro.stores.hlr import HLR\n",
            self.RELPATH,
        )
        assert len(found) == 1
        assert "repro.adapters" in found[0].message

    def test_flags_direct_store_module_import(self):
        found = check_source(
            LayeringRule(),
            "import repro.stores.hlr\n",
            "repro/core/fixture.py",
        )
        assert len(found) == 1

    def test_flags_relative_store_import(self):
        found = check_source(
            LayeringRule(),
            "from ..stores import hlr\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_adapter_import(self):
        found = check_source(
            LayeringRule(),
            "from repro.adapters.hlr_adapter import HlrAdapter\n",
            self.RELPATH,
        )
        assert found == []

    def test_allows_type_checking_import(self):
        found = check_source(
            LayeringRule(),
            dedent("""
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.stores.hlr import HLR
            """),
            self.RELPATH,
        )
        assert found == []

    def test_adapters_layer_may_import_stores(self):
        found = check_source(
            LayeringRule(),
            "from repro.stores.hlr import HLR\n",
            "repro/adapters/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            LayeringRule(),
            dedent("""
                # gupcheck: ignore[layering] -- migration shim until PR N
                from repro.stores.hlr import HLR
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# exception-totality
# ---------------------------------------------------------------------------

class TestExceptionTotalityRule:
    RELPATH = "repro/pxml/fixture.py"

    def test_flags_non_gup_raise(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def parse(text):
                    raise ValueError("bad")
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "ValueError" in found[0].message

    def test_flags_bare_except(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def safe(text):
                    try:
                        return int(text)
                    except:
                        return None
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_flags_swallowing_except_exception(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def safe(text):
                    try:
                        return int(text)
                    except Exception:
                        return None
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_gup_raises_and_reraise(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                from repro.errors import ParseError, ModelError

                def parse(text):
                    if not text:
                        raise ParseError("empty")
                    try:
                        return int(text)
                    except Exception:
                        raise
            """),
            self.RELPATH,
        )
        assert found == []

    def test_allows_reraising_caught_variable(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def rethrow(err):
                    raise err
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            ExceptionTotalityRule(),
            "def f():\n    raise ValueError('x')\n",
            "repro/stores/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            ExceptionTotalityRule(),
            dedent("""
                def parse(text):
                    # gupcheck: ignore[exception-totality] -- stdlib contract
                    raise KeyError(text)
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# cache-key-scope
# ---------------------------------------------------------------------------

class TestCacheKeyScopeRule:
    RELPATH = "repro/core/fixture.py"

    def test_flags_unscoped_put(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def fill(cache, path, fragment, now):
                    cache.put(path, fragment, now)
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "shield bypass" in found[0].message

    def test_flags_unscoped_get_and_get_stale(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def probe(self, path, now):
                    hit = self.cache.get(path, now)
                    corpse = self.cache.get_stale(path, now)
                    return hit or corpse
            """),
            self.RELPATH,
        )
        assert len(found) == 2

    def test_flags_empty_scope_constant(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def fill(cache, path, fragment, now):
                    cache.put(path, fragment, now, scope="")
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "empty scope" in found[0].message

    def test_allows_scoped_calls(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def fill(self, path, fragment, context, now):
                    self.cache.put(
                        path, fragment, now,
                        scope=context.cache_scope(),
                    )
                    return self.cache.get(
                        path, now, scope=context.cache_scope()
                    )
            """),
            self.RELPATH,
        )
        assert found == []

    def test_allows_positional_scope(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def probe(cache, path, now, scope):
                    return cache.get(path, now, scope)
            """),
            self.RELPATH,
        )
        assert found == []

    def test_ignores_non_cache_receivers_and_invalidate(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def misc(self, mapping, key, cache, path):
                    value = mapping.get(key)
                    adapter = self.adapters.get(key)
                    cache.invalidate(path)
                    return value, adapter
            """),
            self.RELPATH,
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            CacheKeyScopeRule(),
            dedent("""
                def warm(cache, path, fragment, now):
                    # gupcheck: ignore[cache-key-scope] -- admin warmup, pre-shield
                    cache.put(path, fragment, now)
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# determinism inside simnet: no sleeps, no blocking I/O
# ---------------------------------------------------------------------------

class TestSimBlockingRule:
    RELPATH = "repro/simnet/fixture.py"

    def test_flags_time_sleep(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                import time

                def handler():
                    time.sleep(0.1)
            """),
            self.RELPATH,
        )
        # both the blocking-module import and the sleep call
        assert len(found) == 2

    def test_flags_blocking_io(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def handler(path):
                    with open(path) as handle:
                        return handle.read()
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_flags_socket_import(self):
        found = check_source(
            DeterminismRule(),
            "import socket\n",
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_virtual_time(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def handler(sim, callback):
                    sim.schedule(25.0, callback)
                    return sim.now
            """),
            self.RELPATH,
        )
        assert found == []

    def test_out_of_scope_module_not_checked(self):
        found = check_source(
            DeterminismRule(),
            "import time\n",
            "repro/workloads/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            DeterminismRule(),
            dedent("""
                def snapshot(path):
                    # gupcheck: ignore[determinism] -- debug dump, not an event handler
                    return open(path)
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# shield-egress
# ---------------------------------------------------------------------------

class TestShieldEgressRule:
    RELPATH = "repro/core/server.py"
    ENGINE_RELPATH = "repro/sansio/engine.py"

    def test_flags_unshielded_cache_egress(self):
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def lookup(self, request, context, now):
                        fragment = self.cache.get(
                            request, now, scope=context.cache_scope()
                        )
                        return fragment
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "privacy-shield" in found[0].message

    def test_flags_unshielded_adapter_egress_via_helper(self):
        # Taint must flow through same-class plumbing (the fixpoint).
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Executor:
                    def _fetch(self, part):
                        adapter = self.adapters[part.store_id]
                        return adapter.get(part.path)

                    def run(self, request, context, now):
                        fragment = self._fetch(request)
                        return fragment, now
            """),
            self.ENGINE_RELPATH,
        )
        assert len(found) == 1

    def test_flags_export_user_egress(self):
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def dump(self, store, user_id, context):
                        view = store.export_user(user_id)
                        return view
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_shielded_egress_passes(self):
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def lookup(self, request, context, now):
                        fragment = self.cache.get(
                            request, now, scope=context.cache_scope()
                        )
                        if fragment is None:
                            return None
                        self._shield_cached(request, context)
                        return fragment

                    def _shield_cached(self, parsed, context):
                        decision = self.pep.enforce(parsed, context)
                        if not decision.permit:
                            raise RuntimeError("denied")
            """),
            self.RELPATH,
        )
        assert found == []

    def test_resolve_counts_as_sanitizer(self):
        # Not by its name: the server's resolve earns the guard
        # through a body that reaches pep.enforce.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def resolve(self, request, context, now):
                        self.pep.enforce(request, context)
                        return self.coverage.lookup(request)

                class Executor:
                    def __init__(self, server: Server):
                        self.server = server

                    def run(self, request, context, now):
                        referral = self.server.resolve(request, context, now)
                        fragments = []
                        for part in referral.parts:
                            adapter = self.server.adapters[part.store_id]
                            fragments.append(adapter.get(part.path))
                        return fragments
            """),
            self.ENGINE_RELPATH,
        )
        assert found == []

    def test_flags_unshielded_batch_egress(self):
        # E19: a batch fan-out takes *contexts* (a batch of
        # requesters) — that is an egress surface exactly like a lone
        # ``context`` parameter, and returning adapter data without a
        # sanitizer must be flagged.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Executor:
                    def execute_batch(self, requests, contexts, now):
                        results = []
                        for request in requests:
                            adapter = self.adapters[request.store_id]
                            results.append(adapter.get(request.path))
                        return results
            """),
            self.ENGINE_RELPATH,
        )
        assert len(found) == 1
        assert "execute_batch" in found[0].message

    def test_flags_batch_egress_via_annotation(self):
        # The batch parameter may be named anything as long as it is
        # annotated with a RequestContext container.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Executor:
                    def fan_out(self, requests,
                                requesters: "Sequence[RequestContext]",
                                now):
                        payload = [
                            self.cache.get(request, now, scope="s")
                            for request in requests
                        ]
                        return payload
            """),
            self.ENGINE_RELPATH,
        )
        assert len(found) == 1

    def test_shielded_batch_egress_passes(self):
        # The real batch path: per-item shield recheck via the
        # sanitizing facades keeps the fan-out clean.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Executor:
                    def execute_batch(self, requests, contexts, now):
                        results = []
                        for request, context in zip(requests, contexts):
                            hit = self.cache_lookup(request, context, now)
                            if hit is not None:
                                results.append(hit)
                                continue
                            referral = self._resolve_tracked(
                                request, context, now
                            )
                            results.append(referral)
                        return results

                    def cache_lookup(self, request, context, now):
                        hit = self.cache.get(request, now, scope="s")
                        self._shield_cached(request, context)
                        return hit

                    def _resolve_tracked(self, request, context, now):
                        self.pep.enforce(request, context)
                        return self.coverage.lookup(request)
            """),
            self.ENGINE_RELPATH,
        )
        assert found == []

    def test_flags_unshielded_store_get_program(self):
        # The value a sans-io program receives at `yield StoreGet(...)`
        # is the adapter read the driver did for it — a source exactly
        # like `adapter.get(...)` was in the inline dialect.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Engine:
                    def peek(self, client, part, context, now):
                        fragment = yield StoreGet(part.store_id, part.path)
                        yield Send(part.store_id, client,
                                   fragment.byte_size(), "fragment")
                        return fragment
            """),
            self.ENGINE_RELPATH,
        )
        assert len(found) == 1
        assert "peek" in found[0].message

    def test_flags_referral_program_resolved_off_the_shield(self):
        # The engine's referral program, except that the referral comes
        # from a raw coverage lookup instead of _resolve_tracked: taint
        # flows out of fetch_part through `yield Fork([...])` and
        # `yield from`, and nothing on the path consults the shield.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Engine:
                    def fetch_part(self, origin, part, now):
                        yield Send(origin, part.store_id, 80, "query")
                        fragment = yield StoreGet(part.store_id, part.path)
                        return fragment, part.store_id

                    def referral(self, client, path, context, now,
                                 parallel=True):
                        referral = self.host.server.coverage.lookup(path)
                        fragments = []
                        if parallel and len(referral.parts) > 1:
                            outcomes = yield Fork([
                                self.fetch_part(client, part, now)
                                for part in referral.parts
                            ])
                            fragments.extend(
                                outcome.value[0] for outcome in outcomes
                            )
                        else:
                            for part in referral.parts:
                                fragment, _store = yield from (
                                    self.fetch_part(client, part, now)
                                )
                                fragments.append(fragment)
                        merged = yield from self.merge_at(fragments, client)
                        return QueryOutcome(merged)
            """),
            self.ENGINE_RELPATH,
        )
        assert len(found) == 1
        assert "referral" in found[0].message

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def shipped_findings():
        """Relpaths of the rule's findings over the real tree (the
        whole of src/ is the project: shields are earned through
        resolved callee bodies, not names)."""
        report = Analyzer([ShieldEgressRule()]).analyze_paths([SRC_ROOT])
        assert report.errors == []
        return [v.path for v in report.violations + report.suppressed]

    def test_shipped_engine_is_shielded(self):
        # Every requester-facing pattern program reaches the shield.
        assert self.ENGINE_RELPATH not in self.shipped_findings()

    def test_contextless_plumbing_exempt(self):
        # No requester context = not an egress surface (the cache
        # itself, the engine's fetch_part, the deliberately unshielded
        # direct() baseline).
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Cacheish:
                    def get(self, path, now, scope=""):
                        entry = self.entries.get((path, scope))
                        return entry

                    def _fetch(self, part):
                        adapter = self.adapters[part.store_id]
                        return adapter.get(part.path)
            """),
            "repro/core/cache.py",
        )
        assert found == []

    def test_out_of_scope_file_not_checked(self):
        # The rule covers all of repro/; tests and benches are out.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Anything:
                    def lookup(self, request, context):
                        return self.cache.get(request, 0.0)
            """),
            "tests/fixture.py",
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def debug_peek(self, request, context, now):
                        fragment = self.cache.get(request, now, scope="x")
                        # gupcheck: ignore[shield-egress] -- operator debug tap, not client-reachable
                        return fragment
            """),
            self.RELPATH,
        )
        assert found == []

    # -- E20: bus delivery callbacks are requester egress -------------------

    BUS_RELPATH = "repro/bus/listeners.py"

    def test_flags_unshielded_bus_delivery(self):
        # A delivery batch is profile data by construction; handing a
        # delta to the subscriber callback without the shield is the
        # push-path twin of an unshielded return.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Subscriber:
                    def _deliver_records(self, records, now, context):
                        for record in records:
                            self._on_delivery(record.value, record.at, now)
            """),
            self.BUS_RELPATH,
        )
        assert len(found) == 1
        assert "delivery" in found[0].message
        assert "_deliver_records" in found[0].message

    def test_flags_bus_log_replay_egress(self):
        # ``since`` on a log receiver is a source like a cache probe.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Notifier:
                    def replay_to(self, cursor, context):
                        pending = self.log.since(cursor)
                        return pending
            """),
            "repro/bus/bus.py",
        )
        assert len(found) == 1

    def test_shielded_bus_delivery_passes(self):
        # The real listener: pep.enforce per delta on the path.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Subscriber:
                    def _deliver_records(self, records, now, memo, context):
                        for record in records:
                            decision = self._pep.enforce(
                                self._request, context
                            )
                            if decision.permit:
                                self._on_delivery(
                                    record.value, record.at, now
                                )
            """),
            self.BUS_RELPATH,
        )
        assert found == []

    def test_flags_bus_delivery_before_the_shield(self):
        # The shield is statement-ordered, not function-wide: a delta
        # forwarded before the enforce has not passed it.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Subscriber:
                    def _deliver_records(self, records, now, context):
                        for record in records:
                            self._on_delivery(record.value, record.at, now)
                        self._pep.enforce(self._request, context)
            """),
            self.BUS_RELPATH,
        )
        assert len(found) == 1

    def test_contextless_bus_plumbing_exempt(self):
        # The wave flush hands records to listeners but acts for no
        # requester — the shield belongs to the listener's delivery.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Bus:
                    def _flush(self):
                        for listener in self._listeners:
                            batch = self.log.since(self.cursor[listener.name])
                            listener.deliver(batch, self.now, self, {})
            """),
            "repro/bus/bus.py",
        )
        assert found == []

    def test_bus_delivery_suppression(self):
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Subscriber:
                    def _deliver_records(self, records, now, context):
                        for record in records:
                            # gupcheck: ignore[shield-egress] -- owner-only mirror feed, no third-party requester
                            self._on_delivery(record.value, record.at, now)
            """),
            self.BUS_RELPATH,
        )
        assert found == []

    def test_bus_sink_model_scoped_to_bus_modules(self):
        # Outside repro/bus/, a ``records`` parameter is not
        # pre-tainted and delivery sinks are not egress.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Hub:
                    def _deliver_records(self, records, now, context):
                        for record in records:
                            self._on_delivery(record.value, record.at, now)
            """),
            self.RELPATH,
        )
        assert found == []

    FED_RELPATH = "repro/federation/reconciler.py"

    def test_flags_unshielded_federation_export(self):
        # An outbound sync write is a disclosure to another
        # administrative domain; skipping the shield on the export
        # path is the E22 twin of an unshielded bus delivery.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Reconciler:
                    def _push_out(self, user_id, entry, value, at, context):
                        self.foreign.write(
                            user_id, entry.foreign_attr, value,
                            origin=self.tag, at=at,
                        )
            """),
            self.FED_RELPATH,
        )
        assert len(found) == 1
        assert "_push_out" in found[0].message

    def test_shielded_federation_export_passes(self):
        # The real export path: pep.enforce per attribute, withheld
        # values never reach the foreign write.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Reconciler:
                    def _push_out(self, user_id, entry, value, at, context):
                        decision = self.pep.enforce(
                            entry.gup_path(user_id), context
                        )
                        if not decision.permit:
                            return False
                        self.foreign.write(
                            user_id, entry.foreign_attr, value,
                            origin=self.tag, at=at,
                        )
                        return True
            """),
            self.FED_RELPATH,
        )
        assert found == []

    def test_contextless_federation_import_exempt(self):
        # The pull path writes GUPster's own store for no requester —
        # the shield belongs where data leaves the system.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Reconciler:
                    def _pull_in(self, user_id, entry, value, at):
                        self._note_tag(user_id, entry.gup_suffix, value)
                        self.gup.write(user_id, entry.gup_suffix, value, at=at)
            """),
            self.FED_RELPATH,
        )
        assert found == []

    def test_fed_sink_model_scoped_to_federation_modules(self):
        # Outside repro/federation/, a ``value`` parameter is not
        # pre-tainted and ``write`` is not an egress sink.
        found = check_source(
            ShieldEgressRule(),
            dedent("""
                class Server:
                    def apply(self, user_id, value, context):
                        self.store.write(user_id, value)
            """),
            self.RELPATH,
        )
        assert found == []

    def test_shipped_reconciler_export_is_shielded(self):
        # The rule holds on the real module, not just fixtures.
        assert self.FED_RELPATH not in self.shipped_findings()


# ---------------------------------------------------------------------------
# span-balance
# ---------------------------------------------------------------------------

class TestSpanBalanceRule:
    RELPATH = "repro/core/fixture.py"

    def test_flags_discarded_span_handle(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def lookup(trace, store):
                    trace.span("query.referral", store=store)
                    trace.hop("a", "b", 100)
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "discarded" in found[0].message
        assert found[0].line == 2

    def test_flags_abandoned_handle(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def lookup(trace):
                    handle = trace.span("query.referral")
                    trace.hop("a", "b", 100)
            """),
            self.RELPATH,
        )
        assert len(found) == 1
        assert "`handle`" in found[0].message

    def test_flags_abandoned_recorder_start(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def measure(rec):
                    span = rec.start("op", 0.0)
                    return 1
            """),
            self.RELPATH,
        )
        assert len(found) == 1

    def test_allows_with_statement(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def lookup(trace, store):
                    with trace.span("query.referral", store=store):
                        trace.hop("a", "b", 100)
            """),
            self.RELPATH,
        )
        assert found == []

    def test_allows_handle_entered_later(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def lookup(trace):
                    handle = trace.span("query.referral")
                    with handle as span:
                        span.set("status", "ok")
            """),
            self.RELPATH,
        )
        assert found == []

    def test_allows_explicit_finish_and_escapes(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def measure(rec):
                    span = rec.start("op", 0.0)
                    rec.finish(span, 5.0)

                def direct_close(rec):
                    span = rec.start("op", 0.0)
                    span.end_ms = 5.0

                def escapes(rec):
                    span = rec.start("op", 0.0)
                    return span
            """),
            self.RELPATH,
        )
        assert found == []

    def test_ignores_re_match_span(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def bounds(match):
                    match.span()
                    start_end = match.span(1)
                    return start_end
            """),
            self.RELPATH,
        )
        assert found == []

    def test_suppression(self):
        found = check_source(
            SpanBalanceRule(),
            dedent("""
                def lookup(trace):
                    # gupcheck: ignore[span-balance] -- handle closed by caller-owned registry
                    handle = trace.span("query.referral")
            """),
            self.RELPATH,
        )
        assert found == []


# ---------------------------------------------------------------------------
# suppression mechanics (Analyzer-level audit)
# ---------------------------------------------------------------------------

class TestSuppressionAudit:
    def _analyze(self, source, relpath="repro/core/fixture.py"):
        module = ModuleInfo.from_source(dedent(source), relpath)
        return Analyzer().analyze_module(module)

    def test_justified_suppression_lands_in_suppressed_report(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[determinism] -- host benchmark only
                return time.time()
        """)
        assert active == []
        assert len(suppressed) == 1
        assert suppressed[0].rule == "determinism"
        assert suppressed[0].justification == "host benchmark only"

    def test_unjustified_suppression_is_a_violation(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                return time.time()  # gupcheck: ignore[determinism]
        """)
        rules = sorted(v.rule for v in active)
        # The original finding stays active AND the bad suppression is
        # flagged: silencers must say why.
        assert rules == sorted(["determinism", SUPPRESSION_RULE])
        assert suppressed == []

    def test_unknown_rule_name_is_a_violation(self):
        active, _ = self._analyze("""
            x = 1  # gupcheck: ignore[no-such-rule] -- because reasons
        """)
        assert [v.rule for v in active] == [SUPPRESSION_RULE]
        assert "no-such-rule" in active[0].message

    def test_rule_subset_still_knows_every_registered_rule(self):
        # `--rules X` must not turn every other rule's suppressions
        # into "unknown rule" findings: the vocabulary is the
        # registry, and an inactive rule's suppression is not audited.
        subset = Analyzer(rules=[LayeringRule()])
        module = ModuleInfo.from_source(dedent("""
            x = 1  # gupcheck: ignore[determinism] -- inactive here
            y = 2  # gupcheck: ignore[nonsense] -- still a typo
        """), "repro/core/fixture.py")
        active, _ = subset.analyze_module(module)
        assert [v.rule for v in active] == [SUPPRESSION_RULE]
        assert "nonsense" in active[0].message

    def test_trailing_comment_covers_its_own_line(self):
        active, suppressed = self._analyze("""
            import time

            def bench():
                return time.time()  # gupcheck: ignore[determinism] -- why not
        """)
        assert active == []
        assert len(suppressed) == 1

    def test_standalone_comment_covers_next_line_only(self):
        active, _ = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[determinism] -- first call only
                first = time.time()
                second = time.time()
                return first - second
        """)
        assert [v.rule for v in active] == ["determinism"]
        assert active[0].line == 6

    def test_suppression_for_other_rule_does_not_apply(self):
        active, _ = self._analyze("""
            import time

            def bench():
                # gupcheck: ignore[sim-race] -- wrong rule on purpose
                return time.time()
        """)
        assert "determinism" in [v.rule for v in active]


# ---------------------------------------------------------------------------
# report / JSON schema
# ---------------------------------------------------------------------------

class TestReportSchema:
    def _report(self, tmp_path):
        bad = tmp_path / "repro" / "simnet" / "busy.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n\n\ndef handler():\n"
            "    time.sleep(1)\n    return time.time()\n",
            encoding="utf-8",
        )
        return Analyzer().analyze_paths([str(tmp_path)])

    def test_json_schema(self, tmp_path):
        report = self._report(tmp_path)
        data = json.loads(report.to_json())
        assert data["gupcheck"] == 2
        assert data["ok"] is False
        assert data["files_scanned"] == 1
        assert set(data["rules"]) == {
            rule_class.name for rule_class in ALL_RULES
        }
        assert data["suppressed"] == []
        assert data["errors"] == []
        assert set(data) == {
            "gupcheck", "ok", "files_scanned", "rules",
            "violations", "suppressed", "errors",
        }
        assert len(data["violations"]) >= 2
        for violation in data["violations"]:
            assert set(violation) == {
                "rule", "path", "line", "col", "message",
                "severity", "fingerprint",
            }
            assert isinstance(violation["line"], int)
            assert violation["severity"] in ("error", "warning")
            assert violation["path"] == "repro/simnet/busy.py"
        rules_hit = {v["rule"] for v in data["violations"]}
        assert "determinism" in rules_hit

    def test_unparseable_file_reported_not_crashing(self, tmp_path):
        broken = tmp_path / "repro" / "core" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def (:\n", encoding="utf-8")
        report = Analyzer().analyze_paths([str(tmp_path)])
        assert not report.ok
        assert len(report.errors) == 1

    def test_rule_names_unique_and_kebab(self):
        names = [rule.name for rule in default_rules()]
        assert len(names) == len(set(names)) == len(ALL_RULES)
        for name in names:
            assert name == name.lower()
            assert " " not in name


# ---------------------------------------------------------------------------
# self-check: the shipped tree is clean; the CLI agrees
# ---------------------------------------------------------------------------

class TestSelfCheck:
    def test_source_tree_is_clean(self):
        report = Analyzer().analyze_paths([SRC_ROOT])
        assert report.errors == []
        assert report.violations == [], "\n".join(
            str(v) for v in report.violations
        )
        # Every scanned file parsed, and the scan actually saw the tree.
        assert report.files_scanned >= 60

    def test_cli_exits_zero_on_clean_tree(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--json", SRC_ROOT],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is True

    def test_cli_lists_rules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        for rule_class in ALL_RULES:
            assert rule_class.name in proc.stdout


# ---------------------------------------------------------------------------
# the E17 kill matrix cannot silently rot
# ---------------------------------------------------------------------------

class TestKillMatrix:
    def test_every_mutant_still_applies_exactly_once(self):
        # String search only — no analyzer run in tier-1. A mutant
        # whose `old` drifted out of the shipped file proves nothing.
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_e17_killmatrix",
            os.path.join(
                REPO_ROOT, "benchmarks", "bench_e17_killmatrix.py"
            ),
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        names = [row["name"] for row in bench.MUTANTS]
        assert len(names) == len(set(names)) >= 21
        for row in bench.MUTANTS:
            assert row["old"] != row["new"]
            bench.mutated_source(row)  # SystemExit unless exactly once
