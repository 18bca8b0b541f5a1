"""Synthetic profile stores and workload generation for the scale
experiments (E3, E7).

Scale claims ("at its peak, Napster had more than 50m users") cannot be
checked by hand-building portal accounts; :class:`SyntheticAdapter`
generates deterministic GUP profiles on demand from a seed — no
per-user storage beyond the component inventory — so populations of
hundreds of thousands of users fit in memory while exercising exactly
the same code paths as the hand-built stores.

:class:`ZipfSampler` draws component-request sequences with the skew a
profile workload would show (hot users are looked up constantly, cold
ones almost never), which is what makes caching (E7) interesting.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pxml import FrozenPNode, PNode
from repro.adapters.base import GupAdapter

__all__ = ["SyntheticAdapter", "ZipfSampler", "spread_users"]

#: Users whose exported tree one adapter memoizes (LRU). A whole-user
#: tree is tens of KB, so the memo is a memory budget: a uniform
#: workload never re-reads a user before it would have been evicted
#: at any affordable size, and a skewed one lives in its head.
EXPORT_MEMO_USERS = 32


class SyntheticAdapter(GupAdapter):
    """A GUP-enabled store whose profiles are generated, not stored."""

    COMPONENTS = (
        "address-book", "presence", "calendar", "game-scores",
        "devices", "preferences",
    )

    def __init__(
        self,
        store_id: str,
        region: str = "internet",
        book_entries: int = 10,
        calendar_entries: int = 5,
        seed: int = 7,
        memoize_exports: bool = False,
    ):
        super().__init__(store_id, region=region)
        self.book_entries = book_entries
        self.calendar_entries = calendar_entries
        self.seed = seed
        #: user id -> components this store holds for them
        self._holdings: Dict[str, Tuple[str, ...]] = {}
        #: components overridden by writes, frozen:
        #: (user, component) -> FrozenPNode
        self._written: Dict[Tuple[str, str], PNode] = {}
        #: Opt-in export memoization for hot read workloads (E19).
        #: Exports are built frozen (:class:`FrozenPNode`), so the
        #: memoized tree is shared with every reader and none of them
        #: can change it. Invalidated on any add/remove/write for the
        #: user; holds the :data:`EXPORT_MEMO_USERS` most recently
        #: exported users, least recent first.
        self._export_cache: Optional[Dict[str, PNode]] = (
            {} if memoize_exports else None
        )

    def add_user(
        self, user_id: str, components: Sequence[str]
    ) -> None:
        unknown = [c for c in components if c not in self.COMPONENTS]
        if unknown:
            raise ValueError("unsupported components %r" % unknown)
        self._holdings[user_id] = tuple(components)
        if self._export_cache is not None:
            self._export_cache.pop(user_id, None)

    def remove_user(self, user_id: str) -> Dict[str, PNode]:
        """Drop *user_id* from this store, returning any written
        component overrides (shard migration carries them along so a
        moved subscriber's writes survive the move)."""
        self._holdings.pop(user_id, None)
        if self._export_cache is not None:
            self._export_cache.pop(user_id, None)
        overrides: Dict[str, PNode] = {}
        for key in [k for k in self._written if k[0] == user_id]:
            overrides[key[1]] = self._written.pop(key)
        return overrides

    def users(self) -> List[str]:
        return sorted(self._holdings)

    def user_count(self) -> int:
        return len(self._holdings)

    def holdings(self, user_id: str) -> Tuple[str, ...]:
        return self._holdings.get(user_id, ())

    def coverage_paths(self, user_id: str) -> List[str]:
        """Registration paths straight from the component inventory.

        Overrides the base implementation (which materializes the full
        exported view just to list its children) — at carrier-scale
        populations that generation pass dominates ``join()`` time.
        Produces byte-identical paths: exported children are exactly
        the held components, in :data:`COMPONENTS` order."""
        components = self._holdings.get(user_id)
        if components is None:
            return []
        held = set(components)
        return [
            "/user[@id='%s']/%s%s"
            % (user_id, tag, self.COMPONENT_SLICES.get(tag, ""))
            for tag in self.COMPONENTS
            if tag in held
        ]

    # -- generation ------------------------------------------------------------

    def export_user(self, user_id: str) -> Optional[PNode]:
        """The user's generated profile as a frozen tree; a written
        component is the frozen override itself, shared."""
        components = self._holdings.get(user_id)
        if components is None:
            return None
        if self._export_cache is not None:
            cached = self._export_cache.pop(user_id, None)
            if cached is not None:
                self._export_cache[user_id] = cached
                return cached
        # CRC32, not hash(): string hash() is randomized per process
        # (PYTHONHASHSEED), which silently made generated *text* —
        # and therefore sampled byte sizes and latencies — differ
        # between runs of the same seed. The E18 golden-latency gate
        # caught this; profile content must be a pure function of
        # (user, store, seed).
        rng = random.Random(
            (zlib.crc32(user_id.encode("utf-8"))
             ^ self.seed
             ^ zlib.crc32(self.store_id.encode("utf-8"))) & 0x7FFFFFFF
        )
        parts: List[PNode] = []
        for component in components:
            override = self._written.get((user_id, component))
            if override is not None:
                parts.append(override)
                continue
            builder = getattr(self, "_build_" + component.replace("-", "_"))
            parts.append(builder(user_id, rng))
        root = FrozenPNode("user", {"id": user_id}, None, parts)
        if self._export_cache is not None:
            if len(self._export_cache) >= EXPORT_MEMO_USERS:
                del self._export_cache[next(iter(self._export_cache))]
            self._export_cache[user_id] = root
        return root

    def apply_component(
        self, user_id: str, component: str, fragment: PNode
    ) -> None:
        if user_id not in self._holdings:
            self._holdings[user_id] = (component,)
        elif component not in self._holdings[user_id]:
            self._holdings[user_id] = self._holdings[user_id] + (
                component,
            )
        self._written[(user_id, component)] = fragment.frozen()
        if self._export_cache is not None:
            self._export_cache.pop(user_id, None)

    # -- component builders ----------------------------------------------------
    # Each builds its component frozen, children first, drawing from
    # *rng* in document order.

    def _build_address_book(self, user_id: str, rng) -> PNode:
        items = []
        for index in range(self.book_entries):
            name = FrozenPNode(
                "name", text="Contact %d of %s" % (index, user_id)
            )
            number = FrozenPNode(
                "number", {"type": "cell"},
                "908-%03d-%04d" % (rng.randint(100, 999),
                                   rng.randint(0, 9999)),
            )
            items.append(FrozenPNode(
                "item",
                {
                    "id": str(index),
                    "type": "personal" if index % 2 else "corporate",
                },
                None,
                (name, number),
            ))
        return FrozenPNode("address-book", None, None, items)

    def _build_presence(self, user_id: str, rng) -> PNode:
        status = FrozenPNode(
            "status",
            text=rng.choice(["available", "busy", "away", "offline"]),
        )
        return FrozenPNode("presence", None, None, (status,))

    def _build_calendar(self, user_id: str, rng) -> PNode:
        appointments = []
        for index in range(self.calendar_entries):
            hour = 8 + (index * 2) % 10
            appointments.append(FrozenPNode(
                "appointment", {"id": "a%d" % index}, None,
                (
                    FrozenPNode("start", text="2003-01-06T%02d:00" % hour),
                    FrozenPNode(
                        "end", text="2003-01-06T%02d:00" % (hour + 1)
                    ),
                    FrozenPNode("subject", text="meeting %d" % index),
                ),
            ))
        return FrozenPNode("calendar", None, None, appointments)

    def _build_game_scores(self, user_id: str, rng) -> PNode:
        scores = [
            FrozenPNode("score", {"game": game},
                        str(rng.randint(100, 3000)))
            for game in ("chess", "go")
        ]
        return FrozenPNode("game-scores", None, None, scores)

    def _build_devices(self, user_id: str, rng) -> PNode:
        device = FrozenPNode(
            "device",
            {
                "id": "dev-%s" % user_id,
                "type": "cell-phone",
                "carrier": rng.choice(["sprintpcs", "vodafone", "att"]),
            },
        )
        return FrozenPNode("devices", None, None, (device,))

    def _build_preferences(self, user_id: str, rng) -> PNode:
        preference = FrozenPNode(
            "preference", {"name": "language"},
            rng.choice(["en", "fr", "de"]),
        )
        return FrozenPNode("preferences", None, None, (preference,))


class ZipfSampler:
    """Deterministic Zipf(alpha) sampler over a fixed item list."""

    def __init__(self, items: Sequence, alpha: float = 1.0,
                 seed: int = 2003):
        if not items:
            raise ValueError("need at least one item")
        self.items = list(items)
        self._rng = random.Random(seed)
        weights = [
            1.0 / ((rank + 1) ** alpha) for rank in range(len(items))
        ]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)

    def sample(self):
        point = self._rng.random()
        low, high = 0, len(self._cdf) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cdf[mid] < point:
                low = mid + 1
            else:
                high = mid
        return self.items[low]

    def sequence(self, count: int) -> List:
        return [self.sample() for _ in range(count)]


def spread_users(
    n_users: int,
    stores: Sequence[SyntheticAdapter],
    components_per_user: int = 3,
    replicas: int = 1,
    seed: int = 2003,
) -> List[str]:
    """Distribute a synthetic population over stores.

    Each user gets *components_per_user* components, each placed on
    *replicas* distinct stores (round-robin with a seeded shuffle) —
    heterogeneous placement, as the paper expects ("the profile data
    may be distributed in different ways for each end-user").
    Returns the user ids.
    """
    if replicas > len(stores):
        raise ValueError("more replicas than stores")
    rng = random.Random(seed)
    component_pool = list(SyntheticAdapter.COMPONENTS)
    users = []
    for index in range(n_users):
        user_id = "user%06d" % index
        users.append(user_id)
        components = rng.sample(
            component_pool, min(components_per_user, len(component_pool))
        )
        for component in components:
            first = rng.randrange(len(stores))
            for r in range(replicas):
                store = stores[(first + r) % len(stores)]
                held = store.holdings(user_id)
                store.add_user(user_id, held + (component,))
    return users
