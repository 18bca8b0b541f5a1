"""The attribute mapping table: GUP paths <-> foreign attributes.

The AD-connector pattern (ROADMAP item 3): federation is declared as
a table of per-attribute mappings, each with a **sync direction** —

* ``out`` — GUP is authoritative; changes flow GUP -> foreign only.
  Foreign drift on an out-attribute is detected on journal import and
  overwritten by GUP's value at the next sync round.
* ``in`` — the foreign directory is authoritative; changes flow
  foreign -> GUP only, and GUP-side edits are never exported.
* ``both`` — genuinely contested: concurrent writes are conflicts,
  resolved by the reconciler's policy and ledgered.

A mapping names the GUP side by **suffix** — the element path below
``/user[@id=...]`` (e.g. ``self/email``) — so one table serves every
user; :meth:`MappingEntry.gup_path` expands it per user. ``merge``
optionally overrides the per-attribute merge function used by the
``merge`` conflict policy.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import FederationError, PXMLError
from repro.pxml import parse_path

__all__ = ["DIRECTIONS", "MappingEntry", "MappingTable"]

DIRECTIONS = ("in", "out", "both")


class MappingEntry:
    """One row of the mapping table."""

    __slots__ = ("gup_suffix", "foreign_attr", "direction", "merge")

    def __init__(
        self,
        gup_suffix: str,
        foreign_attr: str,
        direction: str = "both",
        merge: Optional[Callable[[str, str], str]] = None,
    ) -> None:
        if direction not in DIRECTIONS:
            raise FederationError(
                "direction must be one of %r, got %r"
                % (DIRECTIONS, direction)
            )
        if not gup_suffix or gup_suffix.startswith("/"):
            raise FederationError(
                "gup_suffix is the element path below /user[@id=..], "
                "got %r" % gup_suffix
            )
        self.gup_suffix = gup_suffix
        self.foreign_attr = foreign_attr
        self.direction = direction
        self.merge = merge

    def gup_path(self, user_id: str) -> str:
        """The full GUP path of this attribute for one user."""
        return "/user[@id='%s']/%s" % (user_id, self.gup_suffix)

    @property
    def imports(self) -> bool:
        """Do foreign changes flow into GUP?"""
        return self.direction in ("in", "both")

    @property
    def exports(self) -> bool:
        """Do GUP changes flow out to the foreign directory?"""
        return self.direction in ("out", "both")

    def __repr__(self) -> str:
        arrow = {"in": "<-", "out": "->", "both": "<->"}[self.direction]
        return "<MappingEntry %s %s %s>" % (
            self.gup_suffix, arrow, self.foreign_attr,
        )


class MappingTable:
    """The reconciler's federation contract, indexed both ways."""

    def __init__(self, entries: Iterable[MappingEntry]) -> None:
        self._by_suffix: Dict[str, MappingEntry] = {}
        self._by_foreign: Dict[str, MappingEntry] = {}
        for entry in entries:
            if entry.gup_suffix in self._by_suffix:
                raise FederationError(
                    "duplicate GUP suffix %r" % entry.gup_suffix
                )
            if entry.foreign_attr in self._by_foreign:
                raise FederationError(
                    "duplicate foreign attribute %r"
                    % entry.foreign_attr
                )
            self._by_suffix[entry.gup_suffix] = entry
            self._by_foreign[entry.foreign_attr] = entry
        if not self._by_suffix:
            raise FederationError("mapping table is empty")

    def by_suffix(self, gup_suffix: str) -> Optional[MappingEntry]:
        return self._by_suffix.get(gup_suffix)

    def by_foreign(self, attr: str) -> Optional[MappingEntry]:
        return self._by_foreign.get(attr)

    def split_record_path(
        self, path: str
    ) -> Optional[Tuple[str, MappingEntry]]:
        """Map a bus change-record path to (user id, mapping entry) —
        or None when the path is not federated (unmapped, no user id,
        or an unparseable free-form path)."""
        try:
            parsed = parse_path(path)
        except PXMLError:
            # Bus paths are free-form; unparseable means unmapped.
            return None
        user_id = parsed.user_id()
        if user_id is None or parsed.depth < 2:
            return None
        suffix = "/".join(
            step.name for step in parsed.steps[1:]
        )
        entry = self._by_suffix.get(suffix)
        if entry is None:
            return None
        return user_id, entry

    def entries(self) -> List[MappingEntry]:
        return [
            self._by_suffix[suffix]
            for suffix in sorted(self._by_suffix)
        ]

    def __len__(self) -> int:
        return len(self._by_suffix)

    def __iter__(self) -> Iterator[MappingEntry]:
        return iter(self.entries())

    def __repr__(self) -> str:
        return "<MappingTable %d entr%s>" % (
            len(self), "y" if len(self) == 1 else "ies",
        )
