"""The foreign directory: a store that keeps mutating on its own.

*The Identity Crisis* (PAPERS.md) catalogs what goes wrong when two
authorities write the same attribute; this class is the other
authority. It is deliberately **not** a GUP adapter: it has its own
write API (used by the foreign side's administrators, HR feeds,
self-service portals...), an AD-style **USN change counter** whose
journal the reconciler polls incrementally, and fault hooks the
benches and property tests drive:

* :meth:`fail` / :meth:`restore` — a directory-wide outage; reads and
  writes raise :class:`~repro.errors.ForeignUnavailableError`.
* :meth:`reject_writes_for` — a per-object poison pill: writes for one
  user are rejected (constraint violation, ACL, replication conflict
  ...), which is what feeds the reconciler's reject queue.
* a **bounded journal window** — like AD's tombstone lifetime, only
  the newest ``max_journal`` changes replay; a cursor behind it gets
  :class:`~repro.errors.ForeignResyncRequiredError`, never a gap.

Every change carries an **origin tag**. The foreign side's own writers
use their own tags (default ``"foreign"``); the reconciler writes with
its sync tag, so its journal poll can tell a genuinely foreign change
from the echo of a change it exported itself (DESIGN.md §4.10,
echo-suppression invariant).

:class:`LdapForeignDirectory` keeps a real
:class:`~repro.stores.directory.DirectoryServer` in lockstep through
the :meth:`~repro.adapters.ldap_adapter.LdapAdapter.write_attr` seam,
so reconciler traffic exercises the adapter's write path end to end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.errors import (
    ForeignResyncRequiredError,
    ForeignUnavailableError,
    StoreError,
)
from repro.seqlog import DEFAULT_WINDOW, SeqLog
from repro.simnet import Simulator

__all__ = [
    "DEFAULT_MAX_JOURNAL",
    "ForeignChange",
    "ForeignDirectory",
    "LdapForeignDirectory",
]

#: Default journal window (changes retained for incremental replay).
DEFAULT_MAX_JOURNAL = DEFAULT_WINDOW

#: Origin tag of the foreign side's own writers.
FOREIGN_ORIGIN = "foreign"

#: Fixed per-change envelope when a journal slice crosses the wire.
CHANGE_OVERHEAD_BYTES = 48


class ForeignChange:
    """One journaled foreign-directory change."""

    __slots__ = ("usn", "at", "user_id", "attr", "value", "origin")

    def __init__(
        self,
        usn: int,
        at: float,
        user_id: str,
        attr: str,
        value: str,
        origin: str,
    ) -> None:
        self.usn = usn
        self.at = at
        self.user_id = user_id
        self.attr = attr
        self.value = value
        self.origin = origin

    def byte_size(self) -> int:
        """Wire size of this change inside a journal slice."""
        return (
            CHANGE_OVERHEAD_BYTES
            + len(self.user_id) + len(self.attr) + len(self.value)
        )

    def __repr__(self) -> str:
        return "<ForeignChange #%d %s.%s=%r by %s @%.1f>" % (
            self.usn, self.user_id, self.attr, self.value,
            self.origin, self.at,
        )


class ForeignDirectory:
    """A mutating foreign directory with a USN journal.

    Parameters
    ----------
    name:
        Directory name — also the simulated-network node the
        reconciler's journal polls and writes travel to.
    sim:
        The simulator; writes are stamped at ``sim.now`` unless the
        caller carries a virtual timestamp across from the other side.
    max_journal:
        Journal window: older changes are dropped (``dropped`` counts
        them) and cursors behind the window must full-resync.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        max_journal: int = DEFAULT_MAX_JOURNAL,
    ) -> None:
        if max_journal <= 0:
            raise ValueError("max_journal must be positive")
        self.name = name
        self.sim = sim
        self.max_journal = max_journal
        self.available = True
        #: (user, attr) -> (value, virtual timestamp of the change).
        self._state: Dict[Tuple[str, str], Tuple[str, float]] = {}
        #: Incremental replay window, newest ``max_journal`` changes.
        self._journal: SeqLog[ForeignChange] = SeqLog(
            max_journal, ForeignResyncRequiredError
        )
        #: Users whose writes are currently rejected (poison hook).
        # clear_rejects() empties it.
        self._rejected: Set[str] = set()
        self.writes = 0
        self.reads = 0
        self.rejected_writes = 0

    # -- fault hooks ----------------------------------------------------------

    def fail(self) -> None:
        """Directory-wide outage: every read/write raises until
        :meth:`restore`."""
        self.available = False

    def restore(self) -> None:
        self.available = True

    def reject_writes_for(self, user_id: str) -> None:
        """Poison one object: writes for *user_id* raise
        :class:`~repro.errors.StoreError` until cleared."""
        self._rejected.add(user_id)

    def clear_rejects(self, user_id: Optional[str] = None) -> None:
        if user_id is None:
            self._rejected.clear()
        else:
            self._rejected.discard(user_id)

    def _check_available(self) -> None:
        if not self.available:
            raise ForeignUnavailableError(
                "foreign directory %r is down" % self.name
            )

    # -- the write API (the other authority) ----------------------------------

    def write(
        self,
        user_id: str,
        attr: str,
        value: str,
        origin: str = FOREIGN_ORIGIN,
        at: Optional[float] = None,
    ) -> ForeignChange:
        """One attribute write, journaled under the next USN.

        *origin* names the writer (the reconciler passes its sync tag
        so the journal can be echo-filtered); *at* carries a virtual
        timestamp across from the originating side — conflict policies
        compare the instants the values were *authored*, not the
        instants the sync loop happened to copy them."""
        self._check_available()
        if user_id in self._rejected:
            self.rejected_writes += 1
            raise StoreError(
                "foreign directory %r rejects writes for %r"
                % (self.name, user_id)
            )
        when = self.sim.now if at is None else at
        self._apply_native(user_id, attr, value)
        self._state[(user_id, attr)] = (value, when)
        change = ForeignChange(
            self.last_usn + 1, when, user_id, attr, value, origin
        )
        self._journal.append(change)
        self.writes += 1
        return change

    def _apply_native(
        self, user_id: str, attr: str, value: str
    ) -> None:
        """Subclass hook: push the write into a backing native store
        (may raise — the journal records only applied writes)."""

    # -- reads ----------------------------------------------------------------

    def read(
        self, user_id: str, attr: str
    ) -> Optional[Tuple[str, float]]:
        """Current (value, authored-at) of one attribute, or None."""
        self._check_available()
        self.reads += 1
        return self._state.get((user_id, attr))

    def users(self) -> List[str]:
        return sorted({user for user, _attr in self._state})

    def attrs_of(self, user_id: str) -> List[str]:
        return sorted(
            attr for user, attr in self._state if user == user_id
        )

    # -- the USN journal -------------------------------------------------------

    def changes_since(self, usn: int) -> List[ForeignChange]:
        """Every journaled change with ``usn`` greater than the
        cursor, oldest first. A cursor behind the retained window
        raises :class:`~repro.errors.ForeignResyncRequiredError` —
        the reconciler must full-resync, not silently skip the gap."""
        self._check_available()
        return self._journal.since(usn)

    @property
    def head_usn(self) -> int:
        """USN of the oldest retained journal entry."""
        return self._journal.head_seq

    @property
    def last_usn(self) -> int:
        return self._journal.last_seq

    @property
    def dropped(self) -> int:
        """Journal entries dropped by the retention window."""
        return self._journal.dropped

    def journal_len(self) -> int:
        return len(self._journal)

    def __repr__(self) -> str:
        return "<%s %s usn=%d %d user(s)%s>" % (
            type(self).__name__, self.name, self.last_usn,
            len(self.users()), "" if self.available else " DOWN",
        )


class LdapAdapterLike(Protocol):  # pragma: no cover - typing only
    """Structural stand-in for :class:`LdapAdapter` (avoids importing
    the adapter package here)."""

    def write_attr(
        self, user_id: str, attr: str, values: List[str]
    ) -> None: ...


class LdapForeignDirectory(ForeignDirectory):
    """A foreign directory whose truth lives in a real
    :class:`~repro.stores.directory.DirectoryServer`.

    Writes go through the LDAP adapter's :meth:`write_attr` seam
    before they are journaled, so schema violations and missing
    entries surface as :class:`~repro.errors.AdapterError` — exactly
    the failures the reconciler's reject queue must absorb."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        adapter: LdapAdapterLike,
        max_journal: int = DEFAULT_MAX_JOURNAL,
    ) -> None:
        super().__init__(name, sim, max_journal=max_journal)
        self.adapter = adapter

    def _apply_native(
        self, user_id: str, attr: str, value: str
    ) -> None:
        self.adapter.write_attr(user_id, attr, [value])
