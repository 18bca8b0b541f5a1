"""The component cache's per-user invalidation index.

``ComponentCache.invalidate`` tests only the entries of the user the
updated path names, plus the entries whose path binds no user id.
:class:`LinearScanCache` keeps the rule it replaced — test every
entry — as the oracle: on any sequence of cache operations both drop
the same keys and keep the same counters.
"""

from hypothesis import given, settings, strategies as st

import repro.core.cache as cache_module
from repro.core.cache import ComponentCache
from repro.pxml import PNode, parse_path
from repro.pxml.containment import subtree_overlaps

USERS = ["a", "b", "c", None]
COMPONENTS = ["address-book", "presence"]


class LinearScanCache(ComponentCache):
    """``invalidate`` as a scan of every cached entry."""

    def invalidate(self, path):
        key = parse_path(path)
        doomed = [
            cached for cached in self._entries
            if subtree_overlaps(cached[0], key)
        ]
        for cached in doomed:
            self._drop(cached)
        self.invalidations += len(doomed)
        return len(doomed)


def profile_path(user, component, item_type):
    head = "/user" if user is None else "/user[@id='%s']" % user
    if component is None:
        return head
    path = "%s/%s" % (head, component)
    if item_type is not None:
        path += "/item[@type='%s']" % item_type
    return path


paths = st.builds(
    profile_path,
    st.sampled_from(USERS),
    st.sampled_from(COMPONENTS + [None]),
    st.sampled_from(["personal", "corporate", None]),
)
scopes = st.sampled_from(["self:a", "family:b"])
operations = st.one_of(
    st.tuples(st.just("put"), paths, scopes,
              st.sampled_from([None, 0.0, 5.0, 50.0])),
    st.tuples(st.just("get"), paths, scopes),
    st.tuples(st.just("get_stale"), paths, scopes,
              st.sampled_from([None, 0.0, 100.0])),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("invalidate"), paths),
    st.tuples(st.just("clear")),
)


def apply(cache, op, now):
    name, args = op[0], op[1:]
    if name == "put":
        path, scope, ttl = args
        return cache.put(
            path, PNode("fragment", {"at": str(now)}), now,
            ttl_ms=ttl, scope=scope,
        )
    if name == "get":
        path, scope = args
        found = cache.get(path, now, scope=scope)
        return None if found is None else found.serialize()
    if name == "get_stale":
        path, scope, bound = args
        found = cache.get_stale(
            path, now, scope=scope, max_stale_ms=bound,
        )
        return None if found is None else found.serialize()
    if name == "sweep":
        return cache.sweep(now)
    if name == "invalidate":
        return cache.invalidate(args[0])
    return cache.clear()


def indexed_keys(cache):
    keys = [key for bucket in cache._by_user.values() for key in bucket]
    assert all(bucket for bucket in cache._by_user.values())
    assert all(
        key[0].user_id() == user
        for user, bucket in cache._by_user.items() for key in bucket
    )
    return keys


class TestIndexAgainstTheLinearScan:
    @given(
        st.lists(
            st.tuples(operations, st.sampled_from([0.0, 1.0, 10.0])),
            max_size=40,
        ),
        st.integers(1, 5),
        st.sampled_from([0.0, 20.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_drops_and_counters(self, steps, capacity, grace):
        indexed = ComponentCache(
            capacity=capacity, default_ttl_ms=30.0, stale_grace_ms=grace,
        )
        oracle = LinearScanCache(
            capacity=capacity, default_ttl_ms=30.0, stale_grace_ms=grace,
        )
        now = 0.0
        for op, tick in steps:
            now += tick
            assert apply(indexed, op, now) == apply(oracle, op, now)
            assert list(indexed._entries) == list(oracle._entries)
            assert sorted(map(repr, indexed_keys(indexed))) == sorted(
                map(repr, indexed._entries)
            )
        assert indexed.counter_snapshot() == oracle.counter_snapshot()
        assert indexed.check_invariants() == []
        assert oracle.check_invariants() == []


class TestInvalidationCandidates:
    def test_unkeyed_entries_are_invalidated_by_a_keyed_write(self):
        cache = ComponentCache()
        cache.put("/user/address-book", PNode("address-book"), 0.0,
                  scope="self:a")
        cache.put("/user[@id='b']/address-book", PNode("address-book"),
                  0.0, scope="self:b")
        assert cache.invalidate("/user[@id='a']/address-book") == 1
        assert cache.get("/user/address-book", 1.0, scope="self:a") is None
        assert len(cache) == 1

    def test_one_user_write_tests_only_its_bucket_and_the_unkeyed(
        self, monkeypatch,
    ):
        cache = ComponentCache(capacity=4_096)
        fragment = PNode("address-book")
        for index in range(2_000):
            cache.put("/user[@id='u%d']/address-book" % index, fragment,
                      0.0, scope="self")
        for component in ("address-book", "presence"):
            cache.put("/user[@id='me']/%s" % component, fragment, 0.0,
                      scope="self")
        cache.put("/user/presence", fragment, 0.0, scope="self")
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return subtree_overlaps(a, b)

        monkeypatch.setattr(cache_module, "subtree_overlaps", counting)
        assert cache.invalidate("/user[@id='me']/address-book") == 1
        assert len(calls) == 2 + 1
        # A path that names no user still has to test every entry.
        calls.clear()
        assert cache.invalidate("/user/presence") == 2
        assert len(calls) == 2_002
