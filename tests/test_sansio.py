"""Sans-io engine + simnet driver unit tests, and the ISSUE 9
satellite regressions (cache TTL boundary, backoff cap, resync
error)."""

import ast
import pathlib

import pytest

import repro.core
from repro.access import RequestContext
from repro.core import (
    ComponentCache,
    GupsterServer,
    QueryExecutor,
    RetryPolicy,
)
from repro.core.coverage import CoverageMap
from repro.errors import (
    CoverageError,
    NodeUnreachableError,
    PacketLossError,
    ResyncRequiredError,
)
from repro.pxml import parse, parse_path
from repro.sansio import (
    Compute,
    Fork,
    LegOutcome,
    Mark,
    QueryOutcome,
    SansIoQueryEngine,
    Send,
    SpanClose,
    SpanOpen,
    StandaloneQueryHost,
    decision_of,
    leg_values,
)
from repro.simnet import Network
from repro.simnet.driver import SimnetDriver
from repro.workloads import SyntheticAdapter

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"
SCOPE = "app|third-party"
SCOPE = "app|third-party"


def ctx(requester="app", **kwargs):
    return RequestContext(requester, **kwargs)


def build_world(ttl_ms=60_000.0, stale_grace_ms=0.0, retry_policy=None):
    """The split address-book world (same shape as test_resilience)."""
    network = Network(seed=16)
    network.add_node("gupster", region="core")
    network.add_node("client", region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=16,
            default_ttl_ms=ttl_ms,
            stale_grace_ms=stale_grace_ms,
        ),
        enforce_policies=False,
    )
    for store_id, seed in (
        ("gup.alpha.com", 5),
        ("gup.beta.com", 5),
        ("gup.corp.com", 9),
    ):
        adapter = SyntheticAdapter(store_id, seed=seed)
        adapter.add_user("u1", ["address-book"])
        server.join(adapter, user_ids=[])
    server.register_component(PERSONAL, "gup.alpha.com")
    server.register_component(PERSONAL, "gup.beta.com")
    server.register_component(CORPORATE, "gup.corp.com")
    return network, server, retry_policy


# ---------------------------------------------------------------------------
# Intents
# ---------------------------------------------------------------------------

class TestIntents:
    def test_mark_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Mark("victory")

    def test_mark_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            Mark("retry", 0)

    def test_leg_outcome_ok(self):
        assert LegOutcome(value=1).ok
        assert not LegOutcome(error=ValueError("x")).ok

    def test_leg_values_keeps_survivors_in_order(self):
        boom = ValueError("boom")
        assert leg_values(
            [LegOutcome(value=1), LegOutcome(error=boom),
             LegOutcome(value=2)]
        ) == [1, 2]


# ---------------------------------------------------------------------------
# repro.core is written in intents, not against the Trace
# ---------------------------------------------------------------------------

class TestCoreChargesThroughIntents:
    """Every network-charging path in ``repro/core/`` is a sans-io
    program: only ``query.py`` (the simnet face) may import ``Trace``
    at run time, and nothing calls the charging methods directly."""

    MODULES = sorted(
        pathlib.Path(repro.core.__file__).parent.glob("*.py")
    )

    @staticmethod
    def _runtime_nodes(tree):
        """Every node outside ``if TYPE_CHECKING:`` blocks."""
        pending = [tree]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(
                node.test
            ):
                pending.extend(node.orelse)
                continue
            yield node
            pending.extend(ast.iter_child_nodes(node))

    @pytest.mark.parametrize(
        "module", MODULES, ids=[path.name for path in MODULES]
    )
    def test_no_inline_trace_dialect(self, module):
        for node in self._runtime_nodes(ast.parse(module.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names}
                assert "Trace" not in imported or (
                    module.name == "query.py"
                ), "%s imports Trace" % module.name
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                assert node.func.attr not in (
                    "hop", "compute", "wait", "fork",
                ), "%s:%d charges a trace inline" % (
                    module.name, node.lineno,
                )


# ---------------------------------------------------------------------------
# The simnet driver
# ---------------------------------------------------------------------------

class TestSimnetDriver:
    def _trace(self):
        network = Network(seed=3)
        network.add_node("a", region="core")
        network.add_node("b", region="core")
        return network, network.trace()

    def test_send_and_compute_charge_the_trace(self):
        network, trace = self._trace()
        def program():
            yield Send("a", "b", 1000, "payload")
            yield Compute(5.0, "think")
            return "done"
        result = SimnetDriver({}).run(program(), trace)
        assert result == "done"
        assert trace.elapsed_ms > 5.0
        assert trace.bytes_total == 1000

    def test_spans_unwound_when_program_raises(self):
        network, _ = self._trace()
        recorder = network.enable_observability()
        trace = network.trace()
        def program():
            yield SpanOpen("outer")
            yield SpanOpen("inner")
            raise RuntimeError("mid-span failure")
        with pytest.raises(RuntimeError):
            SimnetDriver({}).run(program(), trace)
        assert recorder.open_spans() == []

    def test_transport_error_thrown_into_program(self):
        network, _ = self._trace()
        network.fail("b")
        trace = network.trace()
        caught = []
        def program():
            try:
                yield Send("a", "b", 10, "doomed")
            except NodeUnreachableError as err:
                caught.append(err)
            return "survived"
        assert SimnetDriver({}).run(program(), trace) == "survived"
        assert len(caught) == 1

    def test_fork_joins_captured_failures(self):
        network, trace = self._trace()
        network.force_drops("a", "b", 1)
        def leg_ok():
            yield Compute(1.0, "ok leg")
            return 7
        def leg_drop():
            yield Send("a", "b", 10, "dropped")
            return 8
        def program():
            outcomes = yield Fork(
                [leg_ok(), leg_drop()], capture=(PacketLossError,)
            )
            return outcomes
        outcomes = SimnetDriver({}).run(program(), trace)
        assert outcomes[0].value == 7
        assert isinstance(outcomes[1].error, PacketLossError)

    def test_fork_uncaptured_error_propagates(self):
        network, trace = self._trace()
        network.fail("b")
        def leg():
            yield Send("a", "b", 10, "doomed")
        def program():
            yield Fork([leg()])  # no capture
        with pytest.raises(NodeUnreachableError):
            SimnetDriver({}).run(program(), trace)

    def test_span_close_must_balance(self):
        network, trace = self._trace()
        def program():
            yield SpanClose()
        with pytest.raises(IndexError):
            SimnetDriver({}).run(program(), trace)


# ---------------------------------------------------------------------------
# Engine over simnet ≡ the executor facade
# ---------------------------------------------------------------------------

class TestEngineMatchesExecutor:
    def test_chaining_same_value_and_elapsed(self):
        network_a, server_a, _ = build_world()
        executor = QueryExecutor(network_a, server_a)
        fragment_a, trace_a = executor.chaining(
            "client", BOOK, ctx(), now=0.0
        )

        network_b, server_b, _ = build_world()
        host = StandaloneQueryHost(server_b, server_node="gupster")
        engine = SansIoQueryEngine(host)
        trace_b = network_b.trace()
        outcome = SimnetDriver(server_b.adapters).run(
            engine.chain("client", parse_path(BOOK), ctx(), 0.0),
            trace_b,
        )
        assert isinstance(outcome, QueryOutcome)
        assert outcome.fragment is not None
        assert fragment_a is not None
        assert outcome.fragment.serialize() == fragment_a.serialize()
        assert trace_b.elapsed_ms == trace_a.elapsed_ms
        assert trace_b.bytes_total == trace_a.bytes_total

    def test_cached_hit_disposition(self):
        network, server, _ = build_world()
        host = StandaloneQueryHost(server, server_node="gupster")
        engine = SansIoQueryEngine(host)
        first = SimnetDriver(server.adapters).run(
            engine.cached("client", parse_path(BOOK), ctx(), 0.0),
            network.trace(),
        )
        second = SimnetDriver(server.adapters).run(
            engine.cached("client", parse_path(BOOK), ctx(), 1.0),
            network.trace(),
        )
        assert not first.hit
        assert second.hit and not second.stale
        assert second.fragment.serialize() == first.fragment.serialize()


# ---------------------------------------------------------------------------
# decision_of — the equivalence-gate record
# ---------------------------------------------------------------------------

class TestDecisionOf:
    def test_outcome_record(self):
        fragment = parse("<address-book/>")
        record = decision_of(QueryOutcome(fragment, hit=True))
        assert record["ok"] and record["hit"] and not record["stale"]
        assert record["value"] == fragment.serialize()
        assert record["degraded"] == []

    def test_error_record(self):
        from repro.errors import AccessDeniedError
        record = decision_of(AccessDeniedError("no"))
        assert not record["ok"]
        assert record["denied"]
        assert record["error"] == "AccessDeniedError"


# ---------------------------------------------------------------------------
# Satellite: the TTL boundary is stale, not fresh
# ---------------------------------------------------------------------------

class TestCacheTtlBoundary:
    def _cache(self, **kwargs):
        kwargs.setdefault("capacity", 4)
        kwargs.setdefault("default_ttl_ms", 100.0)
        return ComponentCache(**kwargs)

    def test_fresh_strictly_before_expiry(self):
        cache = self._cache()
        cache.put(BOOK, parse("<address-book/>"), now=0.0, scope=SCOPE)
        assert cache.get(BOOK, now=99.999, scope=SCOPE) is not None

    def test_stale_at_exact_expiry_instant(self):
        # The regression: `now == stored_at + ttl` used to count as
        # fresh, so a TTL-0 entry could satisfy one hit at its own
        # store instant.
        cache = self._cache()
        cache.put(BOOK, parse("<address-book/>"), now=0.0, scope=SCOPE)
        assert cache.get(BOOK, now=100.0, scope=SCOPE) is None

    def test_ttl_zero_never_serves(self):
        cache = self._cache(default_ttl_ms=0.0)
        cache.put(BOOK, parse("<address-book/>"), now=5.0, scope=SCOPE)
        assert cache.get(BOOK, now=5.0, scope=SCOPE) is None

    def test_get_stale_counts_boundary_as_stale_serve(self):
        cache = self._cache(stale_grace_ms=50.0)
        cache.put(BOOK, parse("<address-book/>"), now=0.0, scope=SCOPE)
        assert cache.get_stale(BOOK, now=100.0, scope=SCOPE) is not None
        assert cache.stale_serves == 1  # boundary == already stale

    def test_staleness_ms_zero_at_boundary(self):
        from repro.core.cache import _Entry
        entry = _Entry(parse("<address-book/>"), 0.0, 100.0)
        assert entry.staleness_ms(100.0) == 0.0
        assert not entry.fresh(100.0)
        assert entry.fresh(99.0)

    def test_sweep_drops_only_past_grace(self):
        cache = self._cache(stale_grace_ms=50.0)
        cache.put(BOOK, parse("<address-book/>"), now=0.0, scope=SCOPE)
        cache.put(PERSONAL, parse("<item type='personal'/>"),
                  now=100.0, scope=SCOPE)
        # BOOK is 60ms past TTL (beyond grace at now=160? 160-100=60>50);
        # PERSONAL is fresh until 200.
        assert cache.sweep(now=160.0) == 1
        assert len(cache) == 1
        assert cache.get(PERSONAL, now=160.0, scope=SCOPE) is not None


# ---------------------------------------------------------------------------
# Satellite: backoff cap
# ---------------------------------------------------------------------------

class TestBackoffCap:
    def test_cap_shown_in_repr(self):
        policy = RetryPolicy(max_backoff_ms=150.0)
        assert "cap=150ms" in repr(policy)

    def test_backoff_is_one_based(self):
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.backoff_ms(0)

    def test_huge_retry_number_does_not_overflow(self):
        policy = RetryPolicy(
            max_attempts=2, base_backoff_ms=25.0, multiplier=2.0,
            max_backoff_ms=400.0,
        )
        # 2**9999 overflows a float mid-expression; the cap is the
        # answer regardless.
        assert policy.backoff_ms(10_000) == 400.0

    def test_cap_validated_in_init(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_backoff_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ---------------------------------------------------------------------------
# Satellite: feed truncation is a distinct, deliberate error
# ---------------------------------------------------------------------------

class TestResyncRequired:
    def _truncated_map(self):
        coverage = CoverageMap(max_changelog=2)
        for index in range(5):
            coverage.register(
                "/user[@id='u%d']/address-book" % index, "s"
            )
        return coverage

    def test_truncated_cursor_raises_resync_required(self):
        coverage = self._truncated_map()
        with pytest.raises(ResyncRequiredError):
            coverage.changes_since(0)

    def test_still_a_coverage_error(self):
        # Pre-existing catch sites keep working.
        coverage = self._truncated_map()
        with pytest.raises(CoverageError, match="full resync"):
            coverage.changes_since(0)

    def test_live_cursor_unaffected(self):
        coverage = self._truncated_map()
        assert coverage.changes_since(coverage.revision - 1) != []

    def test_maps_to_410_gone(self):
        from repro.serve.status import status_for
        status, slug = status_for(ResyncRequiredError("cursor dead"))
        assert status == 410
        assert slug == "resync-required"
