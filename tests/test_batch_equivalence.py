"""Batched execution is observably equivalent to sequential execution.

The E19 batching layer (:meth:`~repro.core.QueryExecutor.execute_batch`
and the per-topology ``resolve_batch`` methods) reshapes the *cost
model* — one simulated round trip per (endpoint, batch) instead of one
per query — but must not change a single observable **decision**:

* results are bit-identical (serialized fragments compare equal);
* the privacy shield allows/denies exactly the same items (the PR 1
  cache invariant — scoped keys, shield re-check per hit — holds
  item-wise inside a batch);
* degradation is identical: the same parts fail against the same
  stores with the same error types, stale serves happen for the same
  items, and total failures raise/capture the same errors.

Equivalence is asserted under sunny-day runs and under deterministic
fault injection (``Network.fail``/``restore``). Probabilistic loss is
deliberately out of scope: batches consume fewer seeded RNG samples,
so loss dice land on different messages — the contract (documented on
``execute_batch``) only covers deterministic topologies.
"""

import random

from repro.access import PolicyRule, RequestContext, relationship_in
from repro.core import ComponentCache, GupsterServer, QueryExecutor
from repro.errors import ReproError
from repro.simnet import Network
from repro.workloads import SyntheticAdapter

BOOK = "/user[@id='u1']/address-book"
PERSONAL = "/user[@id='u1']/address-book/item[@type='personal']"
CORPORATE = "/user[@id='u1']/address-book/item[@type='corporate']"
PRESENCE = "/user[@id='u1']/presence"
NOWHERE = "/user[@id='u1']/calendar"  # registered by nobody


def build_world(
    enforce=False, stale_grace_ms=0.0, seed=16
):
    """The E16 split world: personal slice replicated (alpha || beta),
    corporate slice only at the enterprise store, plus presence at
    alpha — with an optional shield for the denial regimes."""
    network = Network(seed=seed)
    network.add_node("gupster", region="core")
    network.add_node("client", region="internet")
    network.add_node("gup.alpha.com", region="internet")
    network.add_node("gup.beta.com", region="core")
    network.add_node("gup.corp.com", region="enterprise")
    server = GupsterServer(
        "gupster",
        cache=ComponentCache(
            capacity=64,
            default_ttl_ms=60_000.0,
            stale_grace_ms=stale_grace_ms,
        ),
        enforce_policies=enforce,
    )
    for store_id, store_seed, components in (
        ("gup.alpha.com", 5, ["address-book", "presence"]),
        ("gup.beta.com", 5, ["address-book"]),
        ("gup.corp.com", 9, ["address-book"]),
    ):
        adapter = SyntheticAdapter(store_id, seed=store_seed)
        adapter.add_user("u1", components)
        server.join(adapter, user_ids=[])
    server.register_component(PERSONAL, "gup.alpha.com")
    server.register_component(PERSONAL, "gup.beta.com")
    server.register_component(CORPORATE, "gup.corp.com")
    server.register_component(PRESENCE, "gup.alpha.com")
    if enforce:
        for rule in (
            PolicyRule(
                "u1", PERSONAL, "permit", relationship_in("family"),
                rule_id="family-personal",
            ),
            PolicyRule(
                "u1", PRESENCE, "permit",
                relationship_in("family", "co-worker"),
                rule_id="presence-known",
            ),
        ):
            server.policy_repository.store(rule)
    executor = QueryExecutor(network, server)
    return network, server, executor


FAMILY = RequestContext("mom", relationship="family")
COWORKER = RequestContext("colleague", relationship="co-worker")
STRANGER = RequestContext("app", relationship="third-party")


def _norm_statuses(statuses):
    return sorted(
        (
            str(status.path),
            status.store,
            status.ok,
            type(status.error).__name__ if status.error else None,
        )
        for status in statuses
    )


def run_sequential(executor, queries, use_cache, now=0.0):
    """One observation tuple per query:
    (kind, payload, hit, stale, statuses)."""
    observed = []
    for request, context in queries:
        try:
            if use_cache:
                fragment, trace, hit = executor.cached(
                    "client", request, context, now=now
                )
            else:
                fragment, trace = executor.chaining(
                    "client", request, context, now=now
                )
                hit = False
        except ReproError as err:
            observed.append(
                ("error:" + type(err).__name__, str(err), False, False,
                 ())
            )
            continue
        observed.append(
            (
                "ok",
                fragment.serialize() if fragment is not None else None,
                hit,
                trace.stale_serves > 0,
                _norm_statuses(trace.part_status),
            )
        )
    return observed


def run_batched(executor, queries, use_cache, batch_size=None, now=0.0):
    observed = []
    size = batch_size or len(queries)
    for start in range(0, len(queries), size):
        chunk = queries[start : start + size]
        requests = [request for request, _context in chunk]
        contexts = [context for _request, context in chunk]
        results, _trace = executor.execute_batch(
            "client", requests, contexts, now=now, use_cache=use_cache
        )
        for item in results:
            if not item.ok:
                observed.append(
                    (
                        "error:" + type(item.error).__name__,
                        str(item.error),
                        False,
                        False,
                        (),
                    )
                )
                continue
            observed.append(
                (
                    "ok",
                    item.fragment.serialize()
                    if item.fragment is not None else None,
                    item.hit,
                    item.stale,
                    _norm_statuses(item.statuses),
                )
            )
    return observed


def random_queries(rng, count, with_denials=False):
    """A seeded mixed workload: split/replicated/uncovered paths,
    duplicates guaranteed by the small pool."""
    pool = [
        (BOOK, STRANGER),
        (PERSONAL, STRANGER),
        (CORPORATE, STRANGER),
        (PRESENCE, STRANGER),
        (NOWHERE, STRANGER),
    ]
    if with_denials:
        pool = [
            (BOOK, FAMILY),
            (PERSONAL, FAMILY),
            (PERSONAL, STRANGER),   # denied: family-only
            (PRESENCE, COWORKER),
            (PRESENCE, STRANGER),   # denied: known relations only
            (NOWHERE, FAMILY),
        ]
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def assert_equivalent(queries, fault=(), use_cache=False,
                      enforce=False, stale_grace_ms=0.0,
                      batch_size=None, warmup=(), now=0.0):
    """Build two identical worlds, apply the same deterministic faults,
    run the same queries sequentially and batched at *now* (after
    *warmup* at 0), compare the observations and the number of shield
    decisions each mode made (enforced, denied)."""
    runs = {}
    decisions = {}
    for label, runner in (
        ("sequential", run_sequential),
        ("batched", lambda ex, q, c, now: run_batched(
            ex, q, c, batch_size=batch_size, now=now
        )),
    ):
        network, server, executor = build_world(
            enforce=enforce, stale_grace_ms=stale_grace_ms
        )
        for request, context in warmup:
            executor.cached("client", request, context, now=0.0)
        for node in fault:
            network.fail(node)
        runs[label] = runner(executor, queries, use_cache, now)
        decisions[label] = (server.pep.enforced, server.pep.denied)
    assert runs["batched"] == runs["sequential"]
    assert decisions["batched"] == decisions["sequential"]
    return runs["sequential"]


class TestSunnyDayEquivalence:
    def test_randomized_chaining(self):
        rng = random.Random(190)
        for trial in range(6):
            queries = random_queries(rng, rng.randrange(3, 18))
            assert_equivalent(
                queries,
                batch_size=rng.choice([None, 3, 5]),
            )

    def test_randomized_cached_with_duplicates(self):
        """Duplicates inside one batch must observe the same hit/miss
        sequence as sequential execution (the wave deferral): first
        occurrence misses and fills, the rest hit."""
        rng = random.Random(191)
        for trial in range(6):
            queries = random_queries(rng, rng.randrange(4, 20))
            observed = assert_equivalent(
                queries, use_cache=True,
                batch_size=rng.choice([None, 4]),
            )
            kinds = [entry[0] for entry in observed]
            assert "ok" in kinds  # the regime actually exercised hits

    def test_cache_hits_follow_first_occurrence(self):
        queries = [(BOOK, STRANGER)] * 4
        observed = assert_equivalent(queries, use_cache=True)
        hits = [entry[2] for entry in observed]
        assert hits == [False, True, True, True]


class TestShieldEquivalence:
    def test_allow_deny_decisions_identical(self):
        rng = random.Random(192)
        for trial in range(6):
            queries = random_queries(
                rng, rng.randrange(4, 16), with_denials=True
            )
            observed = assert_equivalent(
                queries, enforce=True,
                batch_size=rng.choice([None, 3]),
            )
            denied = [e for e in observed if e[0].startswith("error:Access")]
            granted = [e for e in observed if e[0] == "ok"]
            # The pool guarantees both outcomes appear over the run.
            if any(ctx is STRANGER for _p, ctx in queries):
                assert denied
            if any(ctx is FAMILY for _p, ctx in queries):
                assert granted

    def test_cached_denials_stay_denied_per_item(self):
        """Scoped cache keys + per-hit shield recheck, item-wise: a
        family member's cached slice never leaks to the stranger who
        shares its batch."""
        queries = [
            (PERSONAL, FAMILY),
            (PERSONAL, STRANGER),
            (PERSONAL, FAMILY),
            (PERSONAL, STRANGER),
        ]
        observed = assert_equivalent(
            queries, use_cache=True, enforce=True
        )
        assert observed[0][0] == "ok"
        assert observed[1][0].startswith("error:AccessDenied")
        assert observed[2][0] == "ok"
        assert observed[2][2] is True  # second family read hits
        assert observed[2][1] == observed[0][1]  # same permitted slice
        assert observed[3][0].startswith("error:AccessDenied")


class TestFaultEquivalence:
    def test_single_point_of_failure_down(self):
        """Corporate store dead: the split BOOK degrades identically
        (same surviving parts, same failed stores)."""
        rng = random.Random(193)
        for trial in range(4):
            queries = random_queries(rng, rng.randrange(4, 14))
            observed = assert_equivalent(
                queries, fault=("gup.corp.com",),
                batch_size=rng.choice([None, 4]),
            )
            degraded = [e for e in observed if e[0] == "ok" and any(
                not ok for _p, _s, ok, _e in e[4]
            )]
            if any(request == BOOK for request, _c in queries):
                assert degraded

    def test_replica_failover(self):
        """One personal replica dead: failover serves from the other,
        bit-identically in both modes."""
        rng = random.Random(194)
        queries = random_queries(rng, 10)
        assert_equivalent(queries, fault=("gup.alpha.com",))

    def test_total_failure_raises_identically(self):
        queries = [(CORPORATE, STRANGER), (BOOK, STRANGER)]
        observed = assert_equivalent(
            queries,
            fault=("gup.alpha.com", "gup.beta.com", "gup.corp.com"),
        )
        assert observed[0][0] == "error:PartialResultError"

    def test_stale_serve_from_cache_identical(self):
        """Warm two family reads, kill every store, read past the TTL
        and inside the grace with the shield on: both modes serve the
        family member's own stale entries (the shield re-checked on
        each), deny the stranger, fail the cold path, and make the
        same shield decisions."""
        warmup = [(PERSONAL, FAMILY), (PRESENCE, FAMILY)]
        queries = [
            (PERSONAL, FAMILY),
            (PERSONAL, STRANGER),
            (PRESENCE, FAMILY),
            (BOOK, FAMILY),
        ]
        observed = assert_equivalent(
            queries, use_cache=True, enforce=True,
            stale_grace_ms=120_000.0, warmup=warmup, now=90_000.0,
            fault=("gup.alpha.com", "gup.beta.com", "gup.corp.com"),
        )
        for index in (0, 2):
            kind, _payload, hit, stale, _statuses = observed[index]
            assert (kind, hit, stale) == ("ok", True, True)
        assert observed[1][0].startswith("error:AccessDenied")
        assert observed[3][0] == "error:PartialResultError"


class TestExecuteBatchApi:
    def test_parse_error_is_captured_not_raised(self):
        _network, _server, executor = build_world()
        results, _trace = executor.execute_batch(
            "client",
            ["not-a-path", BOOK],
            [STRANGER, STRANGER],
        )
        assert not results[0].ok
        assert type(results[0].error).__name__ == "PathSyntaxError"
        assert results[1].ok


class TestBatchingActuallyBatches:
    def test_fewer_messages_and_less_virtual_time(self):
        """The point of the exercise: same answers, fewer frames."""
        queries = [(BOOK, STRANGER)] * 0 + [
            (PERSONAL, STRANGER), (CORPORATE, STRANGER),
            (PRESENCE, STRANGER), (BOOK, STRANGER),
        ] * 4
        network_seq, _s1, executor_seq = build_world()
        seq_hops = 0
        seq_elapsed = 0.0
        sequential = []
        for request, context in queries:
            _fragment, t = executor_seq.chaining(
                "client", request, context
            )
            sequential.append(_fragment.serialize())
            seq_hops += t.hops
            seq_elapsed += t.elapsed_ms
        network_bat, _s2, executor_bat = build_world()
        requests = [request for request, _context in queries]
        contexts = [context for _request, context in queries]
        results, trace = executor_bat.execute_batch(
            "client", requests, contexts
        )
        assert [
            item.fragment.serialize() for item in results
        ] == sequential
        assert trace.hops < seq_hops  # fewer frames on the wire
        assert trace.elapsed_ms < seq_elapsed / 2.0  # the >=2x gate


# ---------------------------------------------------------------------------
# MDM topologies: resolve_batch vs sequential resolve
# ---------------------------------------------------------------------------

def _mdm_server(name, components=("presence",), user="u1"):
    server = GupsterServer(name)
    store = SyntheticAdapter("store.%s" % name)
    store.add_user(user, list(components))
    server.join(store)
    return server


def _mdm_sequential(mdm, requests, contexts, **kwargs):
    outcomes = []
    for request, context in zip(requests, contexts):
        try:
            referral, _trace = mdm.resolve(
                "client", request, context, **kwargs
            )
            outcomes.append(("ok", referral.render()))
        except Exception as err:  # noqa: BLE001 - equivalence capture
            outcomes.append((type(err).__name__, str(err)))
    return outcomes


def _mdm_batched(mdm, requests, contexts, **kwargs):
    outcomes, _trace = mdm.resolve_batch(
        "client", requests, contexts, **kwargs
    )
    normalized = []
    for referral, error in outcomes:
        if error is not None:
            normalized.append((type(error).__name__, str(error)))
        else:
            normalized.append(("ok", referral.render()))
    return normalized


class TestMdmBatchEquivalence:
    PRESENCE = "/user[@id='u1']/presence"
    GHOST = "/user[@id='ghost']/presence"
    WALLET = "/user[@id='u1']/wallet"

    def _requests(self):
        ghost = RequestContext("ghost", relationship="self")
        u1 = RequestContext("u1", relationship="self")
        return (
            [self.PRESENCE, self.GHOST, self.PRESENCE],
            [u1, ghost, u1],
        )

    def _assert_equivalent(self, build, requests, contexts, fault_sets):
        """Batch ≡ sequential under each (dead nodes, forced drops per
        client link) set. One drop is absorbed by a retry or failover
        on both sides; 99 outlast every attempt of every item."""
        for dead, drops in fault_sets:
            runs = []
            for run in (_mdm_sequential, _mdm_batched):
                network, mdm = build()
                for node in dead:
                    network.fail(node)
                for node, count in drops.items():
                    network.force_drops("client", node, count)
                runs.append(run(mdm, requests, contexts))
            assert runs[0] == runs[1], (dead, drops)

    def _centralized(self):
        from repro.core import CentralizedMdm

        network = Network(seed=5)
        network.add_node("client", region="internet")
        for mirror in ("mdm.us", "mdm.eu"):
            network.add_node(mirror, region="core")
        return network, CentralizedMdm(
            network, _mdm_server("central"), ["mdm.us", "mdm.eu"]
        )

    def test_centralized_sunny_and_failover(self):
        self._assert_equivalent(self._centralized, *self._requests(), (
            ((), {}),
            (("mdm.us",), {}),
            (("mdm.us", "mdm.eu"), {}),
            ((), {"mdm.us": 1}),
            ((), {"mdm.us": 1, "mdm.eu": 1}),
            (("mdm.eu",), {"mdm.us": 99}),
        ))

    def _distributed(self):
        from repro.core import UserDistributedMdm

        network = Network(seed=5)
        for node in ("client", "whitepages", "mdm.carrier"):
            network.add_node(node)
        mdm = UserDistributedMdm(network, "whitepages")
        mdm.assign("u1", "mdm.carrier", _mdm_server("carrier"))
        return network, mdm

    def test_user_distributed(self):
        self._assert_equivalent(self._distributed, *self._requests(), (
            ((), {}),
            (("mdm.carrier",), {}),
            ((), {"whitepages": 1}),
            ((), {"mdm.carrier": 1}),
            ((), {"whitepages": 99}),
            ((), {"mdm.carrier": 99}),
        ))

    def _hierarchical(self):
        from repro.core import HierarchicalMdm

        network = Network(seed=5)
        for node in ("client", "mdm.carrier", "mdm.bank"):
            network.add_node(node)
        mdm = HierarchicalMdm(network)
        bank = GupsterServer("bank")
        bank_store = SyntheticAdapter("store.bank")
        bank_store.add_user("u1", ["preferences"])
        bank.join(bank_store)
        bank.register_component(self.WALLET, "store.bank")
        mdm.set_primary("u1", "mdm.carrier", _mdm_server("primary"))
        mdm.delegate("u1", self.WALLET, "mdm.bank", bank)
        return network, mdm

    def test_hierarchical_with_delegation(self):
        ghost = RequestContext("ghost", relationship="self")
        u1 = RequestContext("u1", relationship="self")
        self._assert_equivalent(
            self._hierarchical,
            [self.PRESENCE, self.WALLET, self.GHOST, self.WALLET],
            [u1, u1, ghost, u1],
            (
                ((), {}),
                (("mdm.bank",), {}),
                (("mdm.carrier",), {}),
                ((), {"mdm.carrier": 1}),
                ((), {"mdm.bank": 1}),
                ((), {"mdm.carrier": 99}),
                ((), {"mdm.bank": 99}),
            ),
        )
