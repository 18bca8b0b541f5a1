"""Syncable replicas with change logs.

Requirement 7 (Data Synchronization): cached/replicated profile data —
most visibly the phone's address book vs the network's copy — needs
change tracking so a fast sync can ship only deltas. A
:class:`SyncEndpoint` wraps one keyed item collection (address-book
items, calendar appointments) with a monotone sequence number, a change
log, and virtual-time update stamps (for last-writer-wins
reconciliation).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SyncError
from repro.pxml import PNode
from repro.seqlog import SeqLog

__all__ = ["Change", "SyncEndpoint"]


class Change:
    """One logged modification."""

    __slots__ = ("seq", "op", "item_id", "payload", "at")

    def __init__(
        self,
        seq: int,
        op: str,
        item_id: str,
        payload: Optional[PNode],
        at: float,
    ):
        self.seq = seq
        self.op = op  # 'put' | 'delete'
        self.item_id = item_id
        self.payload = payload
        self.at = at

    def byte_size(self) -> int:
        base = len(self.item_id) + 16
        if self.payload is not None:
            base += self.payload.byte_size()
        return base

    def __repr__(self) -> str:
        return "<Change #%d %s %s>" % (self.seq, self.op, self.item_id)


class SyncEndpoint:
    """A replica of one component's keyed items."""

    def __init__(
        self,
        name: str,
        component: str = "address-book",
        item_tag: str = "item",
    ):
        self.name = name
        self.component = component
        self.item_tag = item_tag
        self._items: Dict[str, PNode] = {}
        self._updated_at: Dict[str, float] = {}
        self._log: SeqLog[Change] = SeqLog()

    @property
    def seq(self) -> int:
        return self._log.last_seq

    # -- mutation ------------------------------------------------------------

    def _record(
        self, op: str, item_id: str, payload: Optional[PNode], at: float
    ) -> None:
        self._log.append(Change(self.seq + 1, op, item_id, payload, at))

    def put_item(self, item: PNode, now: float = 0.0) -> None:
        if item.tag != self.item_tag:
            raise SyncError(
                "expected <%s>, got <%s>" % (self.item_tag, item.tag)
            )
        item_id = item.attrs.get("id")
        if not item_id:
            raise SyncError("items must carry an id for syncing")
        existing = self._items.get(item_id)
        if existing is not None and existing.deep_equal(item):
            return  # no-op writes don't pollute the log
        self._items[item_id] = item.copy()
        self._updated_at[item_id] = now
        self._record("put", item_id, item.copy(), now)

    def delete_item(self, item_id: str, now: float = 0.0) -> None:
        if item_id not in self._items:
            raise SyncError("no item %r at %s" % (item_id, self.name))
        del self._items[item_id]
        self._updated_at.pop(item_id, None)
        self._record("delete", item_id, None, now)

    def apply_change(self, change: Change, now: float) -> None:
        """Apply a remote change without re-logging a conflict storm:
        the local log still records it (so third replicas hear about
        it), stamped with the remote's original time."""
        if change.op == "put" and change.payload is not None:
            self._items[change.item_id] = change.payload.copy()
            self._updated_at[change.item_id] = change.at
            self._record(
                "put", change.item_id, change.payload.copy(), change.at
            )
        elif change.op == "delete":
            if change.item_id in self._items:
                del self._items[change.item_id]
                self._updated_at.pop(change.item_id, None)
                self._record("delete", change.item_id, None, change.at)

    # -- queries ------------------------------------------------------------

    def item(self, item_id: str) -> Optional[PNode]:
        found = self._items.get(item_id)
        return found.copy() if found is not None else None

    def item_ids(self) -> List[str]:
        return sorted(self._items)

    def updated_at(self, item_id: str) -> float:
        return self._updated_at.get(item_id, 0.0)

    def changes_since(self, seq: int) -> List[Change]:
        """Net changes after *seq*: per item, only the latest wins."""
        latest = {c.item_id: c for c in self._log.since(seq)}
        return sorted(latest.values(), key=lambda c: c.seq)

    def snapshot(self) -> PNode:
        """The full component as a GUP fragment."""
        root = PNode(self.component)
        for item_id in sorted(self._items):
            root.append(self._items[item_id].copy())
        return root

    def load_snapshot(self, component: PNode, now: float = 0.0) -> None:
        """Replace contents from a component fragment (initial load)."""
        if component.tag != self.component:
            raise SyncError(
                "expected <%s> snapshot" % self.component
            )
        self._items.clear()
        self._updated_at.clear()
        for item in component.children_named(self.item_tag):
            self.put_item(item, now)

    @property
    def item_count(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return "<SyncEndpoint %s: %d items, seq=%d>" % (
            self.name, len(self._items), self.seq,
        )
