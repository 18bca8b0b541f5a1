"""The coverage map: which data stores hold which profile components.

Paper Section 4.5: "a coverage is a mapping between sub-trees of the
GUP schema (expressed as XPath expressions) and data-stores. Note that
a given profile component can be mapped to multiple data-stores."

Resolution of a request path against the coverage map is the heart of
GUPster's referral generation:

* stores whose registration **covers** the request can each answer it
  alone — they become ``||`` choices;
* otherwise, registrations that **overlap** the request (the Figure 9
  split address book) each contribute a part, and the referral carries
  a merge plan.

The map is indexed by user id (the first step's ``@id`` predicate), so
lookup cost is independent of the total user population — the property
experiment E3 verifies.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple, Union

from repro.errors import CoverageError
from repro.pxml import Path, parse_path
from repro.pxml.containment import subtree_covers, subtree_overlaps
from repro.seqlog import DEFAULT_WINDOW, SeqLog

__all__ = ["CoverageMap", "CoverageResolution"]


class CoverageResolution:
    """Outcome of resolving one request path.

    ``full`` — (coverage path, store ids) pairs where each store can
    answer the entire request.
    ``partial`` — (coverage path, store ids) pairs that hold only part
    of the requested region.
    """

    def __init__(
        self,
        request: Path,
        full: List[Tuple[Path, List[str]]],
        partial: List[Tuple[Path, List[str]]],
    ) -> None:
        self.request = request
        self.full = full
        self.partial = partial

    @property
    def is_covered(self) -> bool:
        """Can the request be answered at all (fully or by merging)?"""
        return bool(self.full) or bool(self.partial)

    @property
    def needs_merge(self) -> bool:
        return not self.full and len(self.partial) > 0

    def __repr__(self) -> str:
        return "<CoverageResolution %s full=%d partial=%d>" % (
            self.request, len(self.full), len(self.partial),
        )


class CoverageMap:
    """Registrations of profile components by data stores."""

    def __init__(
        self,
        track_changes: bool = True,
        max_changelog: int = DEFAULT_WINDOW,
    ) -> None:
        #: user id -> coverage path -> ordered store ids
        # gupcheck: bounded[enrollment] -- one entry per enrolled (user, component); unregister pops
        self._by_user: Dict[str, Dict[Path, List[str]]] = {}
        #: store id -> set of (user, path) it registered (for leaving)
        # gupcheck: bounded[enrollment] -- mirrors _by_user per store; unregister_store pops it
        self._by_store: Dict[str, Set[Tuple[str, Path]]] = {}
        self.registrations = 0
        self.lookups = 0
        #: Monotone revision + replication feed (the newest
        #: *max_changelog* changes) so mirror constellations replicate
        #: incrementally (Section 4.2's "family of mirrored servers").
        #: ``track_changes=False`` disables the feed — carrier-scale
        #: populations (E19, millions of registrations) never replay
        #: it, and an append per registration is real memory there.
        self.track_changes = track_changes
        if max_changelog <= 0:
            raise ValueError("max_changelog must be positive")
        self.max_changelog = max_changelog
        self.revision = 0
        self._changelog: SeqLog[Tuple[int, str, Path, str]] = SeqLog(
            max_changelog
        )

    def _log_change(self, op: str, path: Path, store_id: str) -> None:
        """Append one feed entry at the current revision."""
        self._changelog.append(
            (self.revision, op, path, store_id), self.revision
        )

    def _changed(self, op: str, path: Path, store_id: str) -> None:
        """A local change takes the next revision and feeds mirrors."""
        self.revision += 1
        if self.track_changes:
            self._log_change(op, path, store_id)

    def _add(self, user_id: str, path: Path, store_id: str) -> bool:
        stores = self._by_user.setdefault(user_id, {}).setdefault(path, [])
        if store_id in stores:
            return False
        stores.append(store_id)
        self._by_store.setdefault(store_id, set()).add((user_id, path))
        return True

    def _discard(self, user_id: str, path: Path, store_id: str) -> bool:
        bucket = self._by_user.get(user_id, {})
        stores = bucket.get(path)
        if not stores or store_id not in stores:
            return False
        stores.remove(store_id)
        if not stores:
            del bucket[path]
        self._by_store.get(store_id, set()).discard((user_id, path))
        return True

    # -- registration ----------------------------------------------------------

    def register(self, path: Union[str, Path], store_id: str) -> None:
        """A data store announces it shares the component at *path*."""
        parsed = parse_path(path)
        user_id = parsed.user_id()
        if user_id is None:
            raise CoverageError(
                "coverage path must carry a user id: %s" % parsed
            )
        if parsed.attribute is not None:
            raise CoverageError(
                "components are subtrees; attribute paths cannot be "
                "registered: %s" % parsed
            )
        if self._add(user_id, parsed, store_id):
            self.registrations += 1
            self._changed("register", parsed, store_id)

    def unregister(self, path: Union[str, Path], store_id: str) -> None:
        parsed = parse_path(path)
        if not self._discard(parsed.user_id() or "", parsed, store_id):
            raise CoverageError(
                "%r never registered %s" % (store_id, parsed)
            )
        self._changed("unregister", parsed, store_id)

    def unregister_store(self, store_id: str) -> int:
        """A store leaves the community; drop all its registrations."""
        entries = self._by_store.pop(store_id, set())
        for user_id, path in sorted(entries, key=lambda e: str(e[1])):
            self._discard(user_id, path, store_id)
            self._changed("unregister", path, store_id)
        return len(entries)

    # -- replication (mirror constellations) ------------------------------------

    def changes_since(
        self, revision: int
    ) -> List[Tuple[int, str, Path, str]]:
        """The replication feed: every change after *revision*."""
        if not self.track_changes:
            raise CoverageError(
                "replication feed disabled (track_changes=False)"
            )
        return self._changelog.since(revision)

    def apply_changes(
        self, changes: List[Tuple[int, str, Path, str]]
    ) -> int:
        """Apply a replication feed from a peer; returns how many
        entries were applied (already-seen revisions are skipped)."""
        applied = 0
        for revision, op, path, store_id in changes:
            if revision <= self.revision:
                continue
            user_id = path.user_id() or ""
            if op == "register":
                self._add(user_id, path, store_id)
            else:
                self._discard(user_id, path, store_id)
            self.revision = revision
            self._log_change(op, path, store_id)
            applied += 1
        return applied

    # -- resolution ------------------------------------------------------------

    def resolve(self, request: Union[str, Path]) -> CoverageResolution:
        """Match *request* against this user's registrations."""
        parsed = parse_path(request)
        self.lookups += 1
        user_id = parsed.user_id()
        if user_id is None:
            raise CoverageError(
                "request must identify a user: %s" % parsed
            )
        bucket = self._by_user.get(user_id, {})
        full: List[Tuple[Path, List[str]]] = []
        partial: List[Tuple[Path, List[str]]] = []
        for coverage_path, stores in bucket.items():
            if not stores:
                continue
            if subtree_covers(coverage_path, parsed):
                full.append((coverage_path, list(stores)))
            elif subtree_overlaps(coverage_path, parsed):
                partial.append((coverage_path, list(stores)))
        full.sort(key=lambda pair: str(pair[0]))
        partial.sort(key=lambda pair: str(pair[0]))
        return CoverageResolution(parsed, full, partial)

    # -- introspection ------------------------------------------------------------

    def paths_for_user(self, user_id: str) -> List[Path]:
        return sorted(self._by_user.get(user_id, {}), key=str)

    def stores_for(
        self, path: Union[str, Path]
    ) -> List[str]:
        parsed = parse_path(path)
        bucket = self._by_user.get(parsed.user_id() or "", {})
        return list(bucket.get(parsed, []))

    def stores(self) -> List[str]:
        return sorted(
            store for store, entries in self._by_store.items() if entries
        )

    def user_count(self) -> int:
        return len(self._by_user)

    def users(self) -> List[str]:
        return sorted(
            user for user, bucket in self._by_user.items() if bucket
        )

    def entry_count(self) -> int:
        return sum(
            len(stores)
            for bucket in self._by_user.values()
            for stores in bucket.values()
        )

    def component_graph(self, user_id: str) -> List[Tuple[str, List[str]]]:
        """Per-user component inventory: (path, stores) — the Figure 6
        'profile = linked components' view."""
        bucket = self._by_user.get(user_id, {})
        return [
            (str(path), list(stores))
            for path, stores in sorted(
                bucket.items(), key=lambda kv: str(kv[0])
            )
        ]
