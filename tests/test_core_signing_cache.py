"""Unit tests for signed queries and the component cache."""

import pytest

from repro.errors import ModelError, SignatureError, StaleQueryError
from repro.core import ComponentCache, QuerySigner
from repro.pxml import PNode


PATH = "/user[@id='arnaud']/presence"
#: Requester scope for the cache-mechanics tests: a single
#: requester (the cache requires a non-empty scope on every call).
SCOPE = "hss.test|self"


class TestSigning:
    def setup_method(self):
        self.signer = QuerySigner(secret=b"k1", freshness_ms=5000)
        self.verifier = self.signer.verifier()

    def test_round_trip(self):
        signed = self.signer.sign(PATH, "bob", now=100.0)
        self.verifier.verify(signed, now=200.0)
        assert self.verifier.verified == 1

    def test_signature_covers_path(self):
        signed = self.signer.sign(PATH, "bob", now=0.0)
        from repro.pxml import parse_path
        signed.path = parse_path("/user[@id='arnaud']/wallet")
        with pytest.raises(SignatureError):
            self.verifier.verify(signed, now=1.0)

    def test_signature_covers_requester(self):
        signed = self.signer.sign(PATH, "bob", now=0.0)
        signed.requester = "mallory"
        with pytest.raises(SignatureError):
            self.verifier.verify(signed, now=1.0)

    def test_stale_query_rejected(self):
        signed = self.signer.sign(PATH, "bob", now=0.0)
        with pytest.raises(StaleQueryError):
            self.verifier.verify(signed, now=6000.0)
        assert self.verifier.rejected == 1

    def test_query_from_the_future_rejected(self):
        signed = self.signer.sign(PATH, "bob", now=1000.0)
        with pytest.raises(StaleQueryError):
            self.verifier.verify(signed, now=500.0)

    def test_wrong_key_rejected(self):
        other = QuerySigner(secret=b"k2")
        signed = other.sign(PATH, "bob", now=0.0)
        with pytest.raises(SignatureError):
            self.verifier.verify(signed, now=1.0)

    def test_byte_size_positive(self):
        signed = self.signer.sign(PATH, "bob", now=0.0)
        assert signed.byte_size() > len(PATH)


def fragment(text="available"):
    root = PNode("user", {"id": "arnaud"})
    presence = root.append(PNode("presence"))
    presence.append(PNode("status", text=text))
    return root


class TestComponentCache:
    def test_miss_then_hit(self):
        cache = ComponentCache(capacity=4, default_ttl_ms=1000)
        assert cache.get(PATH, now=0, scope=SCOPE) is None
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        hit = cache.get(PATH, now=500, scope=SCOPE)
        assert hit is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_ttl_expiry(self):
        cache = ComponentCache(capacity=4, default_ttl_ms=1000)
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        assert cache.get(PATH, now=999, scope=SCOPE) is not None
        assert cache.get(PATH, now=2000, scope=SCOPE) is None
        assert cache.expirations == 1

    def test_per_entry_ttl_overrides_default(self):
        cache = ComponentCache(capacity=4, default_ttl_ms=1000)
        cache.put(PATH, fragment(), now=0, ttl_ms=10, scope=SCOPE)
        assert cache.get(PATH, now=50, scope=SCOPE) is None

    def test_lru_eviction(self):
        cache = ComponentCache(capacity=2, default_ttl_ms=1e9)
        cache.put("/user[@id='a']/presence", fragment(), now=0, scope=SCOPE)
        cache.put("/user[@id='b']/presence", fragment(), now=1, scope=SCOPE)
        cache.get("/user[@id='a']/presence", now=2, scope=SCOPE)  # refresh a
        cache.put("/user[@id='c']/presence", fragment(), now=3, scope=SCOPE)
        assert cache.get("/user[@id='b']/presence", now=4, scope=SCOPE) is None
        assert cache.get("/user[@id='a']/presence", now=4, scope=SCOPE) is not None
        assert cache.evictions == 1

    def test_returned_fragment_is_read_only(self):
        cache = ComponentCache()
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        first = cache.get(PATH, now=1, scope=SCOPE)
        with pytest.raises(ModelError):
            first.child("presence").child("status").text = "tampered"
        second = cache.get(PATH, now=2, scope=SCOPE)
        assert second.child("presence").child("status").text == (
            "available"
        )

    def test_invalidation_trigger_drops_overlapping(self):
        cache = ComponentCache()
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        cache.put("/user[@id='arnaud']/calendar", fragment(), now=0, scope=SCOPE)
        dropped = cache.invalidate("/user[@id='arnaud']/presence/status")
        assert dropped == 1
        assert cache.get(PATH, now=1, scope=SCOPE) is None
        assert cache.get("/user[@id='arnaud']/calendar", now=1, scope=SCOPE) is not None

    def test_invalidation_respects_users(self):
        cache = ComponentCache()
        cache.put("/user[@id='a']/presence", fragment(), now=0, scope=SCOPE)
        cache.put("/user[@id='b']/presence", fragment(), now=0, scope=SCOPE)
        cache.invalidate("/user[@id='a']/presence")
        assert cache.get("/user[@id='b']/presence", now=1, scope=SCOPE) is not None

    def test_hit_rate(self):
        cache = ComponentCache()
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        cache.get(PATH, now=1, scope=SCOPE)
        cache.get("/user[@id='x']/presence", now=1, scope=SCOPE)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ComponentCache(capacity=0)

    def test_clear_and_len(self):
        cache = ComponentCache()
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestRequiredScope:
    """Every keyed cache call names its requester: a missing scope is
    a TypeError, an empty one a ValueError, and neither touches an
    entry or a counter."""

    CALLS = {
        "get": lambda: ((PATH, 1.0), {}),
        "get_stale": lambda: ((PATH, 1.0), {}),
        "put": lambda: ((PATH, fragment(), 1.0), {"ttl_ms": 50.0}),
    }

    def cache(self):
        cache = ComponentCache(stale_grace_ms=1e9)
        cache.put(PATH, fragment(), now=0, scope=SCOPE)
        return cache

    @pytest.mark.parametrize("method", sorted(CALLS))
    def test_missing_scope_is_a_type_error(self, method):
        cache = self.cache()
        args, kwargs = self.CALLS[method]()
        with pytest.raises(TypeError):
            getattr(cache, method)(*args, **kwargs)
        with pytest.raises(TypeError):
            # Positional scope is refused too: it must be spelled out.
            getattr(cache, method)(*args, SCOPE, **kwargs)

    @pytest.mark.parametrize("method", sorted(CALLS))
    def test_empty_scope_is_a_value_error(self, method):
        cache = self.cache()
        before = cache.counter_snapshot()
        args, kwargs = self.CALLS[method]()
        with pytest.raises(ValueError, match="requester scope"):
            getattr(cache, method)(*args, scope="", **kwargs)
        assert cache.counter_snapshot() == before
        assert cache.check_invariants() == []
        assert cache.get(PATH, now=1.0, scope=SCOPE) is not None
