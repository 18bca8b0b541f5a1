"""Failure-aware query execution: retry/failover/backoff, graceful
degradation, serve-stale, and the cache privacy-shield regression."""

import pytest

from repro.access import RequestContext
from repro.core import (
    CentralizedMdm,
    ComponentCache,
    EndpointHealth,
    GupsterServer,
    QueryExecutor,
    RetryPolicy,
)
from repro.errors import (
    AccessDeniedError,
    GupsterError,
    PartialResultError,
)
from repro.pxml import evaluate_values
from repro.simnet import Network, Simulator
from repro.core.subscription import SubscriptionHub
from repro.workloads import SyntheticAdapter, build_converged_world

BOOK = "/user[@id='u1']/address-book"
PERSONAL = BOOK + "/item[@type='personal']"
CORPORATE = BOOK + "/item[@type='corporate']"


def ctx(requester="app", relationship="third-party"):
    return RequestContext(requester, relationship=relationship)


def split_world(ttl_ms=60_000.0, stale_grace_ms=0.0, retry_policy=None):
    """Personal slice replicated (alpha || beta), corporate slice only
    at corp — the same shape as bench_e16."""
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
    executor = QueryExecutor(
        network, server, retry_policy=retry_policy
    )
    return network, server, executor


class TestRetryPolicy:
    def test_backoff_sequence_with_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_backoff_ms=25.0, multiplier=2.0,
            max_backoff_ms=150.0,
        )
        assert [policy.backoff_ms(n) for n in (1, 2, 3, 4)] == [
            25.0, 50.0, 100.0, 150.0,  # capped
        ]

    def test_none_restores_first_error_wins(self):
        policy = RetryPolicy.none()
        assert policy.max_attempts == 1
        assert policy.backoff_ms(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_ms(0)


class TestEndpointHealth:
    def test_order_is_stable_without_failures(self):
        health = EndpointHealth()
        assert health.order(["b", "a", "c"]) == ["b", "a", "c"]

    def test_failures_sink_to_the_back(self):
        health = EndpointHealth()
        health.failure("a")
        health.failure("a")
        health.failure("b")
        assert health.order(["a", "b", "c"]) == ["c", "b", "a"]
        assert health.is_suspect("a")
        assert health.consecutive_failures("a") == 2

    def test_success_clears_suspicion(self):
        health = EndpointHealth()
        health.failure("a")
        health.success("a")
        assert not health.is_suspect("a")
        assert health.order(["a", "b"]) == ["a", "b"]


class TestFailover:
    def test_replica_failover_keeps_answer_full(self):
        network, _server, executor = split_world()
        network.fail("gup.alpha.com")
        fragment, trace = executor.chaining("client", BOOK, ctx())
        assert not trace.degraded
        kinds = set(
            evaluate_values(fragment, "/user/address-book/item/@type")
        )
        assert kinds == {"personal", "corporate"}
        assert trace.failovers >= 1
        assert trace.timeouts_charged >= 1
        assert executor.health.is_suspect("gup.alpha.com")

    def test_health_reorders_subsequent_requests(self):
        network, _server, executor = split_world()
        network.fail("gup.alpha.com")
        executor.chaining("client", BOOK, ctx())
        # Second request goes straight to the healthy replica: no
        # further detection timeouts.
        _fragment, second = executor.chaining("client", BOOK, ctx())
        assert second.timeouts_charged == 0
        assert second.failovers == 0

    def test_retry_recovers_single_choice_transient(self):
        network, _server, executor = split_world()
        # The only corporate message gets lost once: sweep 2 succeeds.
        network.force_drops("gupster", "gup.corp.com", count=1)
        fragment, trace = executor.chaining("client", BOOK, ctx())
        assert not trace.degraded
        assert trace.retries == 1
        backoff = executor.retry_policy.backoff_ms(1)
        assert any(
            "wait: %.3f" % backoff in line for line in trace.log
        )
        kinds = set(
            evaluate_values(fragment, "/user/address-book/item/@type")
        )
        assert "corporate" in kinds

    def test_no_failures_means_zero_counters(self):
        network, _server, executor = split_world()
        _fragment, trace = executor.chaining("client", BOOK, ctx())
        assert trace.retries == 0
        assert trace.failovers == 0
        assert trace.timeouts_charged == 0
        assert not trace.degraded
        assert network.counters.total() == 0


class TestDegradation:
    def test_partial_result_when_one_part_unreachable(self):
        network, _server, executor = split_world()
        network.fail("gup.corp.com")
        fragment, trace = executor.chaining("client", BOOK, ctx())
        assert trace.degraded
        assert trace.degraded_parts == 1
        kinds = set(
            evaluate_values(fragment, "/user/address-book/item/@type")
        )
        assert kinds == {"personal"}
        ok = [s for s in trace.part_status if s.ok]
        failed = [s for s in trace.part_status if not s.ok]
        assert len(ok) == 1 and len(failed) == 1
        assert "corporate" in str(failed[0].path)
        assert failed[0].error is not None
        assert network.counters.degraded_responses == 1

    def test_all_parts_down_raises_with_statuses(self):
        network, _server, executor = split_world()
        for node in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
            network.fail(node)
        with pytest.raises(PartialResultError) as excinfo:
            executor.chaining("client", BOOK, ctx())
        statuses = excinfo.value.part_status
        assert len(statuses) == 2
        assert all(not status.ok for status in statuses)

    def test_degraded_answers_are_not_cached(self):
        network, _server, executor = split_world()
        network.fail("gup.corp.com")
        _fragment, _trace, hit = executor.cached("client", BOOK, ctx())
        assert not hit
        # The degraded merge must not be served as a (full) hit later.
        _fragment, _trace, hit = executor.cached("client", BOOK, ctx())
        assert not hit


class TestServeStale:
    def test_total_outage_serves_stale_within_grace(self):
        network, _server, executor = split_world(
            ttl_ms=1_000.0, stale_grace_ms=10_000.0
        )
        fresh, _trace, hit = executor.cached(
            "client", BOOK, ctx(), now=0.0
        )
        assert not hit
        for node in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
            network.fail(node)
        stale, trace, hit = executor.cached(
            "client", BOOK, ctx(), now=5_000.0
        )
        assert hit
        assert trace.stale_serves == 1
        assert trace.degraded
        assert stale.byte_size() == fresh.byte_size()
        assert network.counters.stale_serves == 1

    def test_stale_grace_is_bounded(self):
        network, _server, executor = split_world(
            ttl_ms=1_000.0, stale_grace_ms=10_000.0
        )
        executor.cached("client", BOOK, ctx(), now=0.0)
        for node in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
            network.fail(node)
        # staleness 19 s > 10 s grace: the corpse is useless.
        with pytest.raises(PartialResultError):
            executor.cached("client", BOOK, ctx(), now=20_000.0)

    def test_no_grace_means_no_stale_serves(self):
        network, _server, executor = split_world(
            ttl_ms=1_000.0, stale_grace_ms=0.0
        )
        executor.cached("client", BOOK, ctx(), now=0.0)
        for node in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
            network.fail(node)
        with pytest.raises(PartialResultError):
            executor.cached("client", BOOK, ctx(), now=5_000.0)


class TestComponentCacheScoping:
    def test_scopes_partition_entries(self):
        from repro.pxml import PNode

        cache = ComponentCache(capacity=4)
        cache.put(BOOK, PNode("address-book"), 0.0, scope="a|self")
        assert cache.get(BOOK, 1.0, scope="b|family") is None
        assert cache.get(BOOK, 1.0, scope="a|self") is not None

    def test_invalidate_crosses_scopes(self):
        from repro.pxml import PNode

        cache = ComponentCache(capacity=4)
        cache.put(BOOK, PNode("address-book"), 0.0, scope="a|self")
        cache.put(BOOK, PNode("address-book"), 0.0, scope="b|family")
        assert cache.invalidate(BOOK) == 2
        assert len(cache) == 0

    def test_get_stale_counts_only_expired_serves(self):
        from repro.pxml import PNode

        cache = ComponentCache(
            capacity=4, default_ttl_ms=100.0, stale_grace_ms=50.0
        )
        cache.put(BOOK, PNode("address-book"), 0.0, scope="client|self")
        assert cache.get_stale(BOOK, 50.0, scope="client|self") is not None
        assert cache.stale_serves == 0  # still fresh
        assert cache.get_stale(BOOK, 140.0, scope="client|self") is not None
        assert cache.stale_serves == 1
        assert cache.get_stale(BOOK, 500.0, scope="client|self") is None


class TestMdmResilience:
    def build(self):
        network = Network(seed=31)
        network.add_node("client", region="internet")
        network.add_node("mdm.us", region="core")
        network.add_node("mdm.eu", region="core")
        server = GupsterServer("central", enforce_policies=False)
        store = SyntheticAdapter("store.central")
        store.add_user("u1", ["presence"])
        server.join(store)
        mdm = CentralizedMdm(network, server, ["mdm.us", "mdm.eu"])
        return network, mdm

    def test_mirror_failover_counts(self):
        network, mdm = self.build()
        network.fail("mdm.us")
        _referral, trace = mdm.resolve(
            "client", "/user[@id='u1']/presence", ctx()
        )
        assert trace.failovers == 1
        assert trace.timeouts_charged == 1
        # Health learned: the next lookup skips the dead mirror.
        _referral, second = mdm.resolve(
            "client", "/user[@id='u1']/presence", ctx()
        )
        assert second.timeouts_charged == 0

    def test_all_mirrors_down_raises_after_retry(self):
        network, mdm = self.build()
        network.fail("mdm.us")
        network.fail("mdm.eu")
        with pytest.raises(GupsterError):
            mdm.resolve("client", "/user[@id='u1']/presence", ctx())
        # Default policy: one backed-off re-sweep happened.
        assert network.counters.retries == 1
        assert network.counters.timeouts == 4  # 2 mirrors x 2 sweeps


class TestCachePrivacyShield:
    """Regression: a cache hit must never bypass the privacy shield.

    Before the fix the component cache was keyed by path alone, so the
    full address book cached for its owner was served verbatim to any
    later requester — including one whose permitted slice is only the
    personal items."""

    BOOK = "/user[@id='arnaud']/address-book"

    def test_cached_slice_respects_requester(self):
        world = build_converged_world()
        owner = RequestContext("arnaud", relationship="self")
        cousin = RequestContext("cousin", relationship="family")
        # The owner warms the cache with the FULL book.
        full, _trace, hit = world.executor.cached(
            "client-app", self.BOOK, owner, now=0.0
        )
        assert not hit
        kinds = set(
            evaluate_values(full, "/user/address-book/item/@type")
        )
        assert "corporate" in kinds
        # Owner's own repeat is a hit and still full.
        full2, _trace, hit = world.executor.cached(
            "client-app", self.BOOK, owner, now=1.0
        )
        assert hit and full2.byte_size() == full.byte_size()
        # The family requester must NOT receive the owner's cached
        # entry: different scope -> miss -> shield-rewritten fetch.
        sliced, _trace, hit = world.executor.cached(
            "client-app", self.BOOK, cousin, now=2.0
        )
        assert not hit
        kinds = set(
            evaluate_values(sliced, "/user/address-book/item/@type")
        )
        assert kinds == {"personal"}
        # And the family requester's own hit stays sliced.
        sliced2, _trace, hit = world.executor.cached(
            "client-app", self.BOOK, cousin, now=3.0
        )
        assert hit
        kinds = set(
            evaluate_values(sliced2, "/user/address-book/item/@type")
        )
        assert kinds == {"personal"}

    def test_policy_revocation_reaches_cached_entries(self):
        world = build_converged_world()
        cousin = RequestContext("cousin", relationship="family")
        _fragment, _trace, hit = world.executor.cached(
            "client-app", self.BOOK, cousin, now=0.0
        )
        assert not hit
        # The owner revokes family access; the requester's own cached
        # entry must not keep leaking (shield re-checked on every hit).
        world.server.revoke_policy("arnaud", "arnaud-family-book")
        with pytest.raises(AccessDeniedError):
            world.executor.cached(
                "client-app", self.BOOK, cousin, now=1.0
            )

    def test_policy_revocation_reaches_stale_serves(self):
        # The serve-stale facade re-checks the shield too. Inside
        # cached() the preceding resolve denies first, so only a
        # direct call tells a missing re-check apart (the E17 kill
        # matrix's stale_no_recheck mutant).
        world = build_converged_world()
        world.server.cache = ComponentCache(
            default_ttl_ms=1_000.0, stale_grace_ms=10_000.0
        )
        cousin = RequestContext("cousin", relationship="family")
        world.executor.cached(
            "client-app", self.BOOK, cousin, now=0.0
        )
        # Past TTL, inside the stale grace: still served...
        assert world.server.cache_stale_lookup(
            self.BOOK, cousin, 5_000.0
        ) is not None
        # ...until the owner revokes family access.
        world.server.revoke_policy("arnaud", "arnaud-family-book")
        with pytest.raises(AccessDeniedError):
            world.server.cache_stale_lookup(
                self.BOOK, cousin, 5_000.0
            )


class TestSubscriptionPollResilience:
    def test_poll_failures_counted_not_fatal(self):
        network, server, executor = split_world()
        sim = Simulator()
        hub = SubscriptionHub(sim, network, server, executor)
        for node in ("gup.alpha.com", "gup.beta.com", "gup.corp.com"):
            network.fail(node)
        hub.start_polling(
            "client", BOOK, "/user/address-book/item/name",
            ctx(), interval_ms=1_000.0, until=5_000.0,
        )
        sim.run()
        assert hub.poll_failures == 5
        assert hub.deliveries == []
