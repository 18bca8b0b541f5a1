"""Append-only per-shard change log with replay cursors in mind.

Every profile mutation becomes a :class:`ChangeRecord` in a
:class:`~repro.seqlog.SeqLog` (per shard), stamped with the virtual
instant it happened. Listeners replay ``since(cursor)`` and the bus
compacts records every listener has consumed — so the log is bounded
by the slowest cursor, not by history.

The log also answers the poll path's question — *when did the change
producing this value happen?* — from a **latest-change-per-path
index** maintained on append. The index survives compaction (it is
O(paths), not O(history)) and returns ``None`` when the value it holds
is not the one asked about, instead of the old fabricated
``sim.now`` fallback that recorded near-zero poll latencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.seqlog import SeqLog

__all__ = ["ChangeLog", "ChangeRecord"]

#: Fixed per-record envelope (seq + timestamps + framing) used when a
#: wave's payload bytes are charged to the simulated network.
RECORD_OVERHEAD_BYTES = 64


class ChangeRecord:
    """One logged profile change."""

    __slots__ = ("seq", "at", "path", "value", "user_id", "shard")

    def __init__(
        self,
        seq: int,
        at: float,
        path: str,
        value: str,
        user_id: Optional[str],
        shard: str,
    ) -> None:
        self.seq = seq
        self.at = at
        self.path = path
        self.value = value
        self.user_id = user_id
        self.shard = shard

    def byte_size(self) -> int:
        """Wire size of this record inside a wave payload."""
        return RECORD_OVERHEAD_BYTES + len(self.path) + len(self.value)

    def __repr__(self) -> str:
        return "<ChangeRecord %s#%d %s=%r @%.1f>" % (
            self.shard, self.seq, self.path, self.value, self.at,
        )


class ChangeLog:
    """Append-only change history for one shard: a
    :class:`~repro.seqlog.SeqLog` of :class:`ChangeRecord` (contiguous
    sequence numbers from 1, so replay is an O(1) slice) that the bus
    compacts behind its slowest cursor, plus the latest-change index,
    which compaction leaves whole.
    """

    def __init__(self, shard_id: str = "main") -> None:
        self.shard_id = shard_id
        self._records: SeqLog[ChangeRecord] = SeqLog()
        #: path -> (value, at) of the *latest* change on that path.
        self._latest: Dict[str, Tuple[str, float]] = {}

    # -- writing -------------------------------------------------------------

    def append(
        self,
        at: float,
        path: str,
        value: str,
        user_id: Optional[str] = None,
    ) -> ChangeRecord:
        """Log one change at virtual instant *at*; returns the record."""
        record = ChangeRecord(
            self.last_seq + 1, at, path, value, user_id, self.shard_id
        )
        self._records.append(record)
        self._latest[path] = (value, at)
        return record

    # -- replay --------------------------------------------------------------

    def since(self, cursor: int) -> List[ChangeRecord]:
        """Every record with ``seq > cursor``, oldest first. A cursor
        the log was compacted past raises
        :class:`~repro.errors.ResyncRequiredError`; the bus compacts
        at its minimum cursor, so none of its listeners can hold one."""
        return self._records.since(cursor)

    def backlog(self, cursor: int) -> int:
        """How many records *cursor* still has to consume — O(1)."""
        return self._records.backlog(cursor)

    # -- the poll path's question --------------------------------------------

    def changed_at(self, path: str, value: str) -> Optional[float]:
        """When the change that produced *value* at *path* happened —
        or ``None`` when that change was never logged (or has been
        superseded, so its instant is no longer known)."""
        latest = self._latest.get(path)
        if latest is not None and latest[0] == value:
            return latest[1]
        return None

    # -- compaction ----------------------------------------------------------

    def compact(self, min_cursor: int) -> int:
        """Drop every record with ``seq <= min_cursor`` (all consumed).
        Returns how many were dropped. The latest-change index is kept
        whole — it is bounded by distinct paths, not history."""
        return self._records.compact(min_cursor)

    # -- introspection -------------------------------------------------------

    @property
    def head_seq(self) -> int:
        """Sequence number of the oldest retained record."""
        return self._records.head_seq

    @property
    def last_seq(self) -> int:
        return self._records.last_seq

    @property
    def compacted_total(self) -> int:
        return self._records.dropped

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return "<ChangeLog %s seq=%d retained=%d>" % (
            self.shard_id, self.last_seq, len(self._records),
        )
