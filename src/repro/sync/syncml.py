"""SyncML-style two-way synchronization sessions.

The GUP group "has already identified SyncML as the protocol for
synchronization" (Section 3.2.2), but "SyncML is only a transport
protocol. Issues like synchronization semantics need to be addressed"
(Section 5.3). This module implements both halves:

* the transport shape — anchor exchange, then change batches in both
  directions, with per-message byte accounting;
* the semantics — **fast sync** (deltas since the stored sequence
  marks, valid only when anchors line up) vs **slow sync** (full
  snapshot comparison after an anchor mismatch, e.g. a device reset),
  plus conflict detection and pluggable reconciliation
  (:mod:`repro.sync.reconcile`).

Experiment E8 measures messages/bytes of fast vs slow sync as a
function of change rate — the shape that justifies anchors.

Accounting (E18 audit): per-run numbers stay on :class:`SyncReport`
(the E8 API), but each :meth:`SyncSession.run` also folds its totals
into registry-backed ``sync.*`` counters so a session's lifetime cost
exports alongside net.*/cache.*/sub.* from one snapshot. The session
starts with a private registry and can be re-homed onto a shared world
registry via :meth:`SyncSession.bind_registry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SyncError
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.pxml import PNode
from repro.sync.endpoint import Change, SyncEndpoint
from repro.sync.reconcile import Conflict, Reconciler

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.access.context import RequestContext
    from repro.access.infrastructure import PolicyEnforcementPoint

__all__ = ["SyncReport", "SyncSession"]

#: Fixed framing overhead per SyncML message.
MESSAGE_OVERHEAD_BYTES = 120


class SyncReport:
    """What one sync session did."""

    def __init__(self, mode: str):
        self.mode = mode  # 'fast' | 'slow'
        self.messages = 0
        self.bytes = 0
        self.sent_to_server = 0
        self.sent_to_client = 0
        #: Items the privacy shield refused to release to the device
        #: this run (shield-mediated sessions only).
        self.withheld = 0
        self.conflicts: List[Conflict] = []

    def add_message(self, payload_bytes: int) -> None:
        self.messages += 1
        self.bytes += payload_bytes + MESSAGE_OVERHEAD_BYTES

    def __repr__(self) -> str:
        return (
            "<SyncReport %s: %d msgs, %d B, c->s %d, s->c %d, "
            "%d withheld, %d conflicts>"
            % (self.mode, self.messages, self.bytes,
               self.sent_to_server, self.sent_to_client,
               self.withheld, len(self.conflicts))
        )


class SyncSession:
    """A persistent pairing of two endpoints (device <-> network).

    A session may be **shield-mediated**: when *owner*, *pep* and
    *context* are given, every item the network side would push down
    to the device first passes the privacy shield
    (``pep.enforce``) under the device's :class:`RequestContext`.
    Denied items are withheld — never serialized toward the client,
    never counted in the wire bytes — and tallied in
    :attr:`SyncReport.withheld`.  The device-to-network direction is
    an upload of the device's own data and is not shield-filtered.

    Sessions built without a shield (the E8 transport benchmarks, or
    two replicas inside one trust domain) behave exactly as before.
    """

    #: (attribute/metric suffix, help) pairs for the lifetime totals.
    COUNTER_FIELDS: Tuple[Tuple[str, str], ...] = (
        ("fast_syncs", "Sessions resolved by fast sync."),
        ("slow_syncs", "Sessions that fell back to slow sync."),
        ("messages", "SyncML messages exchanged, both directions."),
        ("bytes", "Wire bytes exchanged (payload + framing)."),
        ("conflicts", "Conflicting concurrent edits reconciled."),
        ("withheld_items", "Items the privacy shield withheld."),
    )

    fast_syncs = CounterView("sync.fast_syncs")
    slow_syncs = CounterView("sync.slow_syncs")
    messages = CounterView("sync.messages")
    bytes_exchanged = CounterView("sync.bytes")
    conflicts = CounterView("sync.conflicts")
    withheld_items = CounterView("sync.withheld_items")

    def __init__(
        self,
        client: SyncEndpoint,
        server: SyncEndpoint,
        reconciler: Optional[Reconciler] = None,
        owner: Optional[str] = None,
        pep: Optional["PolicyEnforcementPoint"] = None,
        context: Optional["RequestContext"] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if pep is not None and (owner is None or context is None):
            raise SyncError(
                "shield-mediated sync needs owner, pep and context"
            )
        self.client = client
        self.server = server
        self.reconciler = (
            reconciler if reconciler is not None else Reconciler()
        )
        #: Profile owner whose component this session replicates
        #: (shield-mediated sessions only).
        self.owner = owner
        self.pep = pep
        self.context = context
        #: Total items withheld by the shield across all runs.
        self.withheld = 0
        #: Registry backing the lifetime ``sync.*`` totals (private
        #: until :meth:`bind_registry` re-homes it).
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self._register_instruments()
        # Per-run memo of shield decisions, item_id -> permit.
        self._decisions: Dict[str, bool] = {}
        # Anchors per SyncML: both sides remember the last agreed tag.
        self._client_anchor: Optional[str] = None
        self._server_anchor: Optional[str] = None
        self._sync_count = 0
        # High-water marks of each side's log at last sync.
        self._client_mark = 0
        self._server_mark = 0
        self._ever_synced = False

    # -- metrics ----------------------------------------------------------------

    def _register_instruments(self) -> None:
        """Ensure every ``sync.*`` counter exists in the registry."""
        for suffix, help_text in self.COUNTER_FIELDS:
            self.metrics.counter("sync." + suffix, help=help_text)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Re-home onto a shared world registry, migrating totals
        (see :meth:`repro.core.cache.ComponentCache.bind_registry`)."""
        registry.adopt(
            self,
            ("sync." + suffix for suffix, _help in self.COUNTER_FIELDS),
        )

    def _tally(self, report: SyncReport) -> None:
        """Fold one run's :class:`SyncReport` into the lifetime
        ``sync.*`` counters."""
        if report.mode == "fast":
            self.fast_syncs += 1
        else:
            self.slow_syncs += 1
        self.messages += report.messages
        self.bytes_exchanged += report.bytes
        self.conflicts += len(report.conflicts)
        self.withheld_items += report.withheld

    # -- privacy shield ---------------------------------------------------------

    @property
    def shielded(self) -> bool:
        """True when network-to-device flow is shield-mediated."""
        return self.pep is not None

    def _item_path(self, item_id: str) -> str:
        return "/user[@id='%s']/%s/%s[@id='%s']" % (
            self.owner, self.server.component,
            self.server.item_tag, item_id,
        )

    def _permits(self, item_id: str) -> bool:
        """Shield verdict for releasing *item_id* to the device,
        memoized per run so fast- and slow-sync paths agree and each
        withheld item is counted once."""
        if self.pep is None or self.context is None:
            return True
        cached = self._decisions.get(item_id)
        if cached is None:
            decision = self.pep.enforce(
                self._item_path(item_id), self.context
            )
            cached = bool(decision.permit)
            self._decisions[item_id] = cached
        return cached

    # -- anchor management ------------------------------------------------------

    def corrupt_client_anchor(self) -> None:
        """Simulate a device reset / restore-from-backup."""
        self._client_anchor = "corrupt"

    @property
    def anchors_match(self) -> bool:
        return (
            self._ever_synced
            and self._client_anchor == self._server_anchor
        )

    # -- the session ---------------------------------------------------------------

    def run(self, now: float = 0.0) -> SyncReport:
        """One two-way synchronization. Chooses fast or slow sync by
        the anchor comparison, applies changes both ways, reconciles
        conflicts, and rolls the anchors forward."""
        self._decisions = {}
        if self.anchors_match:
            report = self._fast_sync(now)
        else:
            report = self._slow_sync(now)
        report.withheld = sum(
            1 for permit in self._decisions.values() if not permit
        )
        self.withheld += report.withheld
        self._tally(report)
        self._sync_count += 1
        anchor = "a%d" % self._sync_count
        self._client_anchor = anchor
        self._server_anchor = anchor
        self._client_mark = self.client.seq
        self._server_mark = self.server.seq
        self._ever_synced = True
        return report

    # -- fast sync ----------------------------------------------------------------

    def _fast_sync(self, now: float) -> SyncReport:
        report = SyncReport("fast")
        # Alert exchange (anchor comparison).
        report.add_message(32)
        report.add_message(32)
        client_changes = self.client.changes_since(self._client_mark)
        server_changes = self.server.changes_since(self._server_mark)
        self._exchange(client_changes, server_changes, report, now)
        # Map/ack message closing the session.
        report.add_message(16)
        return report

    # -- slow sync ----------------------------------------------------------------

    def _slow_sync(self, now: float) -> SyncReport:
        report = SyncReport("slow")
        report.add_message(32)  # alert: anchors mismatch -> slow
        report.add_message(32)
        # Both sides ship their full databases — the server side only
        # its shield-released slice when the session is mediated.
        client_snapshot = self.client.snapshot()
        server_snapshot = self._released_server_snapshot()
        report.add_message(client_snapshot.byte_size())
        report.add_message(server_snapshot.byte_size())
        # Synthesize changes from the snapshot diff, then reuse the
        # exchange machinery. A slow sync cannot distinguish "deleted
        # here" from "added there", so deletions do not propagate —
        # the documented SyncML slow-sync semantics.
        client_changes = [
            Change(0, "put", item_id, self.client.item(item_id),
                   self.client.updated_at(item_id))
            for item_id in self.client.item_ids()
        ]
        server_changes = [
            Change(0, "put", item_id, self.server.item(item_id),
                   self.server.updated_at(item_id))
            for item_id in self.server.item_ids()
        ]
        self._exchange(
            client_changes, server_changes, report, now,
            skip_identical=True,
        )
        report.add_message(16)
        return report

    def _released_server_snapshot(self) -> PNode:
        """The server database as serialized toward the device: the
        full snapshot for unshielded sessions, otherwise only the
        items the privacy shield releases."""
        if not self.shielded:
            return self.server.snapshot()
        root = PNode(self.server.component)
        for item_id in self.server.item_ids():
            if self._permits(item_id):
                item = self.server.item(item_id)
                if item is not None:
                    root.append(item)
        return root

    # -- shared exchange logic -------------------------------------------------------

    def _exchange(
        self,
        client_changes: List[Change],
        server_changes: List[Change],
        report: SyncReport,
        now: float,
        skip_identical: bool = False,
    ) -> None:
        by_id_server: Dict[str, Change] = {
            change.item_id: change for change in server_changes
        }
        conflict_ids = set()
        to_server: List[Change] = []
        to_client: List[Change] = []

        for change in client_changes:
            partner = by_id_server.get(change.item_id)
            if partner is None:
                to_server.append(change)
                continue
            conflict_ids.add(change.item_id)
            if (
                skip_identical
                and change.op == "put" and partner.op == "put"
                and change.payload.deep_equal(partner.payload)
            ):
                continue  # replicas already agree on this item
            apply_client, apply_server, conflict = (
                self.reconciler.resolve(change, partner)
            )
            to_client.extend(apply_client)
            to_server.extend(apply_server)
            report.conflicts.append(conflict)
        for change in server_changes:
            if change.item_id not in conflict_ids:
                to_client.append(change)

        # Privacy shield on the network->device direction: items the
        # device's context may not see never reach the wire.
        to_client = [
            change for change in to_client
            if self._permits(change.item_id)
        ]

        if to_server:
            report.add_message(
                sum(change.byte_size() for change in to_server)
            )
        if to_client:
            report.add_message(
                sum(change.byte_size() for change in to_client)
            )
        for change in to_server:
            self.server.apply_change(change, now)
        for change in to_client:
            self.client.apply_change(change, now)
        report.sent_to_server = len(to_server)
        report.sent_to_client = len(to_client)
