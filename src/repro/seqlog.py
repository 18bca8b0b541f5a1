"""The one change feed: a sequence-numbered log replayed from a cursor.

Requirement 7's sync logs, Section 4.2's mirror feed, Section 4.6's
policy replicas, the change bus and the federation journal are one
mechanism: entries carry strictly increasing sequence numbers, a
replica holds a cursor and replays ``since(cursor)``, and retention —
a newest-N **window** or cursor-driven :meth:`SeqLog.compact` — drops
the oldest entries and raises the **floor** (the highest sequence
number no longer held). There is one rule past the floor: a cursor
below it **raises** — never clamps, never returns a partial feed — and
the replica falls back to its full resync (DESIGN.md §4.11).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Generic, Iterator, List, Optional, Type, TypeVar

from repro.errors import ResyncRequiredError

__all__ = ["DEFAULT_WINDOW", "SeqLog", "trim_oldest"]

E = TypeVar("E")

#: Default retention window of the replica feeds.
DEFAULT_WINDOW = 65536


def trim_oldest(cap: int, items: List, parallel: Optional[List] = None) -> int:
    """Cut *items* (and a list kept in lockstep with it) down to the
    newest *cap*; returns how many each lost."""
    overflow = max(0, len(items) - cap)
    if overflow:
        del items[:overflow]
        if parallel is not None:
            del parallel[:overflow]
    return overflow


class SeqLog(Generic[E]):
    """Entries in append order under strictly increasing sequence
    numbers: assigned ``last_seq + 1``, or supplied by a replica
    re-logging a peer's revisions (which may gap). Replay slices in
    O(1) while the held numbers are contiguous and bisects otherwise.
    """

    def __init__(
        self,
        window: Optional[int] = None,
        error: Type[Exception] = ResyncRequiredError,
    ) -> None:
        self.window = window
        self._error = error
        self._seqs: List[int] = []
        self._entries: List[E] = []
        #: Highest sequence number dropped (0: the log is whole).
        self.floor = 0
        self.last_seq = 0
        #: Entries lost to the window and to compaction.
        self.dropped = 0

    def append(self, entry: E, seq: Optional[int] = None) -> int:
        """Log *entry* under *seq* (default ``last_seq + 1``)."""
        if seq is None:
            seq = self.last_seq + 1
        elif seq <= self.last_seq:
            raise ValueError(
                "sequence %d is not past %d" % (seq, self.last_seq)
            )
        self.last_seq = seq
        self._seqs.append(seq)
        self._entries.append(entry)
        if self.window is not None:
            self._keep(self.window)
        return seq

    def _keep(self, newest: int) -> int:
        """Hold only the *newest* entries; the rest raise the floor."""
        overflow = len(self._seqs) - newest
        if overflow <= 0:
            return 0
        self.floor = self._seqs[overflow - 1]
        self.dropped += overflow
        return trim_oldest(newest, self._seqs, self._entries)

    def _index(self, cursor: int) -> int:
        """Offset of the first entry past *cursor*."""
        if cursor < self.floor:
            raise self._error(
                "cursor %d predates the retained window (floor %d); "
                "full resync required" % (cursor, self.floor)
            )
        if self.last_seq - self.floor == len(self._seqs):
            return min(cursor, self.last_seq) - self.floor
        return bisect_right(self._seqs, cursor)

    def since(self, cursor: int) -> List[E]:
        """Every entry with a sequence number above *cursor*."""
        return self._entries[self._index(cursor):]

    def backlog(self, cursor: int) -> int:
        """How many entries *cursor* still has to replay."""
        return len(self._seqs) - self._index(cursor)

    def compact(self, upto: int) -> int:
        """Drop every entry at or below *upto* (all cursors are past
        it); returns how many went."""
        if upto <= self.floor:
            return 0
        return self._keep(len(self._seqs) - self._index(upto))

    @property
    def head_seq(self) -> int:
        """The lowest sequence number still replayable."""
        return self.floor + 1

    def __len__(self) -> int:
        return len(self._seqs)

    def __iter__(self) -> Iterator[E]:
        return iter(self._entries)
