"""Component caching at GUPster (paper Sections 5.2/5.3).

"GUPster should probably also offer some caching to make the access to
user profile component faster" — with the classic staleness trade-off
the paper flags in requirement 7 ("triggers to indicate when data has
become stale").

:class:`ComponentCache` is an LRU cache keyed by **(request path,
privacy scope)** with two freshness mechanisms experiment E7 compares:

* **TTL** — entries expire after a fixed virtual-time lifetime;
* **invalidation triggers** — ``invalidate(path)`` drops every cached
  entry overlapping an updated component (across *all* scopes),
  eliminating staleness at the price of update-path signalling. Entries
  are indexed by the user id their path's first step binds, so a
  trigger for one subscriber tests only that subscriber's entries and
  the ones that bind no id: entries of another user cannot overlap
  (``steps_compatible`` refuses two ``id`` values on one step).

The privacy scope exists because a cache in front of the privacy
shield is a hole in the shield: the server rewrites each request to
the *requester's* permitted slice before fetching, so a fragment
cached for requester A (say, the full address book) must never be
served to requester B (who is only permitted the personal items).
Keying by (path, scope) — where the scope is derived from the request
context's identity/relationship — makes a cache hit possible only for
a requester whose permitted slice produced the entry in the first
place. The scope is a required keyword of :meth:`get`,
:meth:`get_stale` and :meth:`put`, and an empty one raises
``ValueError``: an unscoped call fails loudly instead of landing in a
slice every requester shares. Invalidation ignores scopes: an update
stales every slice.

Entries are published trees: :meth:`put` keeps ``fragment.frozen()``
and :meth:`get` and :meth:`get_stale` hand that one tree to every
reader (:meth:`~repro.pxml.node.PNode.share`). Every write to it
raises :class:`~repro.errors.ModelError`, so no reader can change what
the next one is served, and no read copies.

Serve-stale-on-failure (requirement 13, E16): with a positive
``stale_grace_ms`` the cache retains expired entries for that long,
and :meth:`get_stale` can serve them when every origin store is
unreachable — bounded staleness beats unavailability.

Accounting (E18 audit): the counters are registry-backed
(``cache.*`` in a :class:`~repro.obs.MetricsRegistry`; the integer
attributes are views) and obey two invariants the test-suite checks:

* ``gets == hits + misses`` — every :meth:`get` is exactly one or the
  other;
* every inserted entry reaches **exactly one** terminal disposition:
  ``expirations`` (dropped past TTL — by probe, by replacement of an
  expired corpse, or by LRU landing on one), ``evictions`` (LRU drop
  of a *live* entry), ``invalidations`` (trigger), ``replacements``
  (overwrite of a live entry), or ``clears``; so
  ``insertions == len(cache) + sum(terminals)``.

Before the audit the stale-grace path drifted: an expired-but-within-
grace corpse probed by :meth:`get` counted a miss but was never
counted as an expiration when a later :meth:`put` silently replaced
it or the LRU sweep dropped it (that drop even counted as an
*eviction*, overstating capacity pressure); and neither :meth:`get`
nor :meth:`get_stale` LRU-touched the corpse, so the exact entries
retained to cover an outage were the first ones evicted during it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.obs.metrics import CounterView, MetricsRegistry
from repro.pxml import PNode, Path, parse_path
from repro.pxml.containment import subtree_overlaps

__all__ = ["ComponentCache"]


class _Entry:
    __slots__ = ("fragment", "stored_at", "ttl_ms")

    def __init__(self, fragment: PNode, stored_at: float, ttl_ms: float) -> None:
        self.fragment = fragment
        self.stored_at = stored_at
        self.ttl_ms = ttl_ms

    def fresh(self, now: float) -> bool:
        # Stale *at* the boundary: an entry stored at t with TTL d is
        # fresh on [t, t+d) and stale from now == t+d exactly. Virtual
        # time never landed on the edge, but the wall-clock driver
        # makes exact-expiry probes reachable, and "TTL 0 == never
        # cached" only holds under the strict inequality.
        return now - self.stored_at < self.ttl_ms

    def staleness_ms(self, now: float) -> float:
        """How far past its TTL this entry is (< 0 while fresh; 0 at
        the expiry instant, which is already stale)."""
        return now - self.stored_at - self.ttl_ms


class ComponentCache:
    """LRU + TTL cache of component fragments, keyed by (path, scope)."""

    #: (attribute/metric suffix, help) pairs for every counter.
    COUNTER_FIELDS: Tuple[Tuple[str, str], ...] = (
        ("gets", "Lookups via get() (hits + misses)."),
        ("hits", "Fresh entries served by get()."),
        ("misses", "get() lookups finding nothing fresh."),
        ("insertions", "Entries written by put()."),
        ("expirations",
         "Entries dropped past TTL+grace (probe, replace or LRU)."),
        ("evictions", "Live entries dropped by the LRU sweep."),
        ("invalidations", "Entries dropped by update triggers."),
        ("replacements", "Live entries overwritten by put()."),
        ("clears", "Entries dropped by clear()."),
        ("stale_serves", "Expired-within-grace entries served stale."),
    )

    gets = CounterView("cache.gets")
    hits = CounterView("cache.hits")
    misses = CounterView("cache.misses")
    insertions = CounterView("cache.insertions")
    expirations = CounterView("cache.expirations")
    evictions = CounterView("cache.evictions")
    invalidations = CounterView("cache.invalidations")
    replacements = CounterView("cache.replacements")
    clears = CounterView("cache.clears")
    stale_serves = CounterView("cache.stale_serves")

    def __init__(
        self,
        capacity: int = 1024,
        default_ttl_ms: float = 60_000.0,
        stale_grace_ms: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if stale_grace_ms < 0:
            raise ValueError("stale grace must be non-negative")
        self.capacity = capacity
        self.default_ttl_ms = default_ttl_ms
        #: How long past TTL an entry may still be served by
        #: :meth:`get_stale` (0 = never serve stale, the default).
        self.stale_grace_ms = stale_grace_ms
        self._entries: "OrderedDict[Tuple[Path, str], _Entry]" = (
            OrderedDict()
        )
        #: ``key[0].user_id()`` -> that user's keys (None: the path's
        #: first step binds no id); the candidates of an invalidation.
        self._by_user: Dict[
            Optional[str], Dict[Tuple[Path, str], None]
        ] = {}
        #: Registry backing the counters (a private one until the
        #: cache is re-homed onto a shared world registry — see
        #: :meth:`bind_registry`).
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self._register_instruments()

    def _register_instruments(self) -> None:
        for suffix, help_text in self.COUNTER_FIELDS:
            self.metrics.counter("cache." + suffix, help=help_text)
        self.metrics.gauge(
            "cache.size", help="Live entries right now.",
            fn=self._live_size,
        ).bind(self._live_size)

    def _live_size(self) -> float:
        return float(len(self._entries))

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Re-home the counters onto a shared registry (the network's
        world registry), migrating current counts — wired up by
        :class:`~repro.core.query.QueryExecutor` so one snapshot/export
        covers net.*, cache.* and health.*."""
        registry.adopt(
            self,
            ("cache." + suffix for suffix, _help in self.COUNTER_FIELDS),
        )

    def _key(
        self, path: Union[str, Path], scope: str
    ) -> Tuple[Path, str]:
        if not scope:
            raise ValueError(
                "cache traffic needs the requester scope "
                "(context.cache_scope())"
            )
        return (parse_path(path), scope)

    def _drop(self, key: Tuple[Path, str]) -> _Entry:
        """Remove *key*'s entry from the LRU and the user index."""
        user = key[0].user_id()
        bucket = self._by_user[user]
        del bucket[key]
        if not bucket:
            del self._by_user[user]
        return self._entries.pop(key)

    def get(
        self,
        path: Union[str, Path],
        now: float,
        *,
        scope: str,
    ) -> Optional[PNode]:
        """Fresh cached fragment for *path* within *scope*, or None."""
        key = self._key(path, scope)
        self.gets += 1
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.fresh(now):
            if entry.staleness_ms(now) > self.stale_grace_ms:
                # Beyond any stale grace: truly dead, drop it.
                self._drop(key)
                self.expirations += 1
            else:
                # Keep the corpse for get_stale — and LRU-touch it:
                # a probed corpse is exactly the entry serve-stale
                # will need if the refetch we are about to attempt
                # fails, so it must not sit at the eviction end.
                self._entries.move_to_end(key)
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.fragment.share()

    def get_stale(
        self,
        path: Union[str, Path],
        now: float,
        *,
        scope: str,
        max_stale_ms: Optional[float] = None,
    ) -> Optional[PNode]:
        """Last-known fragment even if expired — the serve-stale-on-
        failure path. Returns the fragment when it is fresh *or* within
        ``stale_grace_ms`` (or an explicit *max_stale_ms* bound) past
        its TTL; None otherwise. Counts a stale serve only when the
        entry was actually expired."""
        key = self._key(path, scope)
        entry = self._entries.get(key)
        if entry is None:
            return None
        staleness = entry.staleness_ms(now)
        if staleness < 0:
            # Strictly fresh — at the expiry instant (staleness == 0)
            # the entry is already stale and must go through (and be
            # counted by) the serve-stale path below.
            self._entries.move_to_end(key)
            return entry.fragment.share()
        bound = (
            self.stale_grace_ms if max_stale_ms is None else max_stale_ms
        )
        if staleness <= bound:
            # A corpse that is actively covering an outage is the
            # *most* valuable entry in the cache — touch it so the
            # LRU sweep takes idle entries first.
            self._entries.move_to_end(key)
            self.stale_serves += 1
            return entry.fragment.share()
        self._drop(key)
        self.expirations += 1
        return None

    def put(
        self,
        path: Union[str, Path],
        fragment: PNode,
        now: float,
        ttl_ms: Optional[float] = None,
        *,
        scope: str,
    ) -> None:
        key = self._key(path, scope)
        previous = self._drop(key) if key in self._entries else None
        if previous is not None:
            # The replaced entry's terminal disposition: an expired
            # corpse finally refreshed is an *expiration* (the drift
            # the E18 audit found — these were silently uncounted);
            # overwriting a live entry is a *replacement*.
            if not previous.fresh(now):
                self.expirations += 1
            else:
                self.replacements += 1
        while len(self._entries) >= self.capacity:
            victim = self._drop(next(iter(self._entries)))
            # An LRU sweep landing on an already-expired corpse is an
            # expiration, not capacity pressure.
            if not victim.fresh(now):
                self.expirations += 1
            else:
                self.evictions += 1
        self._entries[key] = _Entry(
            fragment.frozen(),
            now,
            self.default_ttl_ms if ttl_ms is None else ttl_ms,
        )
        self._by_user.setdefault(key[0].user_id(), {})[key] = None
        self.insertions += 1

    def sweep(self, now: float) -> int:
        """Drop every entry past TTL **and** stale grace (each counts
        an expiration); corpses still within grace are kept for
        :meth:`get_stale`. The serving layer's background cache-sweep
        job calls this so dead entries stop occupying LRU slots
        between probes. Returns entries dropped."""
        doomed = [
            key for key, entry in self._entries.items()
            if entry.staleness_ms(now) > self.stale_grace_ms
        ]
        for key in doomed:
            self._drop(key)
        self.expirations += len(doomed)
        return len(doomed)

    def invalidate(self, path: Union[str, Path]) -> int:
        """Drop every cached entry overlapping *path*, across every
        scope (the trigger fired when a component is updated). Returns
        entries dropped."""
        key = parse_path(path)
        user = key.user_id()
        candidates: Iterable[Tuple[Path, str]] = self._entries
        if user is not None:
            candidates = [
                *self._by_user.get(user, ()), *self._by_user.get(None, ()),
            ]
        doomed = [
            cached for cached in candidates
            if subtree_overlaps(cached[0], key)
        ]
        for cached in doomed:
            self._drop(cached)
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop everything (each dropped entry's terminal disposition
        is a ``clear``)."""
        self.clears += len(self._entries)
        self._entries.clear()
        self._by_user.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- accounting introspection (E18) -------------------------------------

    def counter_snapshot(self) -> Dict[str, int]:
        """Every counter by short name, plus the live size."""
        snapshot = {
            suffix: self.metrics.counter("cache." + suffix).value
            for suffix, _help in self.COUNTER_FIELDS
        }
        snapshot["size"] = len(self._entries)
        return snapshot

    def check_invariants(self) -> list:
        """The accounting invariants, as a list of violation strings
        (empty == healthy). Called by tests after every workload."""
        violations = []
        if self.gets != self.hits + self.misses:
            violations.append(
                "gets (%d) != hits (%d) + misses (%d)"
                % (self.gets, self.hits, self.misses)
            )
        terminal = (
            self.expirations + self.evictions + self.invalidations
            + self.replacements + self.clears
        )
        if self.insertions != len(self._entries) + terminal:
            violations.append(
                "insertions (%d) != live (%d) + terminal (%d)"
                % (self.insertions, len(self._entries), terminal)
            )
        return violations
