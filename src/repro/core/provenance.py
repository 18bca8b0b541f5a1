"""Data provenance (paper Section 7, third core challenge).

"The third core challenge involves data provenance, that is, the
tracking of where data (and meta-data) have come from, and where they
have been used."

Two trackers implement the challenge:

* :class:`ProvenanceTracker` — an append-only access ledger at
  GUPster: every referral, fetch and update is recorded with
  (requester, purpose, component, stores, time). Users can audit who
  touched their data (:meth:`disclosures_for`) and applications can
  show where a fragment's pieces came from (:meth:`sources_of`).
* :class:`SourceAnnotator` — stamps merged fragments with per-part
  origins, answering "which store did this item come from?" for the
  split-component case; this is also the hook for detecting when data
  from one source would be redistributed against another source's
  access controls (:meth:`redistribution_conflicts`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.pxml import PNode, Path, parse_path
from repro.pxml.containment import subtree_covers, subtree_overlaps
from repro.seqlog import trim_oldest
from repro.access import RequestContext
from repro.access.policy import PolicyRule

__all__ = [
    "AccessRecord", "DEFAULT_MAX_RECORDS", "ProvenanceTracker",
    "SourceAnnotator",
]


class AccessRecord:
    """One entry of the access ledger."""

    __slots__ = (
        "at", "requester", "relationship", "purpose", "path",
        "stores", "operation", "granted", "note",
    )

    def __init__(
        self,
        at: float,
        context: RequestContext,
        path: Path,
        stores: Sequence[str],
        operation: str,
        granted: bool,
        note: str = "",
    ) -> None:
        self.at = at
        self.requester = context.requester
        self.relationship = context.relationship
        self.purpose = context.purpose
        self.path = path
        self.stores = list(stores)
        self.operation = operation  # 'resolve' | 'fetch' | 'update' | 'reconcile'
        self.granted = granted
        #: Free-form audit detail — e.g. which conflict policy picked
        #: which winner, and why (DESIGN.md §4.10).
        self.note = note

    def __repr__(self) -> str:
        verdict = "granted" if self.granted else "denied"
        return "<AccessRecord %.0f %s %s %s (%s)>" % (
            self.at, self.requester, self.operation, self.path, verdict,
        )


#: Default :class:`ProvenanceTracker` ledger window.
DEFAULT_MAX_RECORDS = 100_000


class ProvenanceTracker:
    """The access ledger: who touched which component, when, via
    which stores.

    The ledger keeps a *window* of the newest *max_records* entries.
    An always-on GUPster appends one record per resolve/fetch/update,
    so an uncapped ledger is linear in total traffic; a real
    deployment would spool old entries to archival storage, which
    this model represents by the ``dropped`` counter — audits can see
    that (and how much) history was truncated."""

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        #: Ledger entries evicted by the retention window.
        self.dropped = 0
        self._records: List[AccessRecord] = []

    def record(
        self,
        at: float,
        context: RequestContext,
        path: Union[str, Path],
        stores: Sequence[str],
        operation: str = "resolve",
        granted: bool = True,
        note: str = "",
    ) -> AccessRecord:
        entry = AccessRecord(
            at, context, parse_path(path), stores, operation, granted,
            note=note,
        )
        self._records.append(entry)
        self.dropped += trim_oldest(self.max_records, self._records)
        return entry

    # -- the user-facing audit ------------------------------------------------

    def disclosures_for(
        self, user_id: str, component: Optional[str] = None
    ) -> List[AccessRecord]:
        """Everything that happened to *user_id*'s data (optionally one
        component) — the e-commerce 'who has my credit card' question."""
        picked = []
        for record in self._records:
            if record.path.user_id() != user_id:
                continue
            if (
                component is not None
                and record.path.steps[1].name != component
            ):
                continue
            picked.append(record)
        return picked

    def requesters_of(self, user_id: str) -> Dict[str, int]:
        """Access counts per requester for one user's data."""
        counts: Dict[str, int] = {}
        for record in self.disclosures_for(user_id):
            if record.granted:
                counts[record.requester] = (
                    counts.get(record.requester, 0) + 1
                )
        return counts

    def denied_attempts(self, user_id: str) -> List[AccessRecord]:
        return [
            r for r in self.disclosures_for(user_id) if not r.granted
        ]

    def __len__(self) -> int:
        return len(self._records)


class SourceAnnotator:
    """Per-fragment origin tracking for merged components."""

    def __init__(self) -> None:
        #: (user, item location path) -> store id it came from
        self._origins: Dict[str, str] = {}

    def annotate(
        self, fragment: PNode, store_id: str
    ) -> None:
        """Record that every element of *fragment* came from
        *store_id* (called once per referral part, pre-merge)."""
        for location, _node in fragment.walk_locations():
            self._origins[location] = store_id

    def sources_of(self, fragment: PNode) -> Dict[str, str]:
        """Map each element location in (merged) *fragment* to its
        origin store, where known. Locations are read from
        *fragment*'s root, so pass the whole fragment."""
        found = {}
        for location, _node in fragment.walk_locations():
            origin = self._origins.get(location)
            if origin is not None:
                found[location] = origin
        return found

    def origin_of(self, fragment: PNode, node: PNode) -> Optional[str]:
        """Origin store of *node*, an element of *fragment*."""
        for location, candidate in fragment.walk_locations():
            if candidate is node:
                return self._origins.get(location)
        return None

    # -- the Section 7 redistribution question -----------------------------------

    def redistribution_conflicts(
        self,
        fragment: PNode,
        source_policies: Dict[str, Sequence[PolicyRule]],
        context: RequestContext,
    ) -> List[Tuple[str, str]]:
        """Would handing *fragment* to *context* violate the access
        controls of any store the pieces came from?

        "What are systematic ways ... to avoid distribution of data
        from one source that violates access controls given for
        another source?" — each element is checked against ITS source
        store's rules; returns (location, source store) pairs that no
        permit rule of the source allows."""
        conflicts = []
        for location, _node in fragment.walk_locations():
            origin = self._origins.get(location)
            if origin is None:
                continue
            rules = source_policies.get(origin, ())
            if not rules:
                continue
            allowed = False
            denied = False
            for rule in rules:
                try:
                    applicable = rule.condition.holds(context) and (
                        subtree_covers(rule.target, location)
                        or subtree_overlaps(rule.target, location)
                    )
                except (ReproError, AttributeError, TypeError,
                        ValueError):
                    # A rule whose condition cannot even be evaluated
                    # against this context is not applicable — but only
                    # the evaluation errors we understand are excused
                    # (an overbroad `except Exception` here used to
                    # swallow everything, including programming bugs).
                    applicable = False
                if not applicable:
                    continue
                if rule.effect == "deny":
                    denied = True
                else:
                    allowed = True
            if denied or not allowed:
                conflicts.append((location, origin))
        return conflicts
