"""The bidirectional reconciler: GUP <-> foreign, one loop, no echoes.

ROADMAP item 3, modeled on the AD-connector pattern: a sync loop that
runs every ``interval_ms`` of virtual time at its own network node and
makes both sides converge on a shared fixpoint per mapped attribute.
DESIGN.md §4.10 gives the state machine; the load-bearing invariants:

**Three-way resolution.** For each dirty (user, attribute) pair the
reconciler compares both sides with ``_base``, the value and newest
authored instant of the last agreement. A side moved if its value or
its instant did (re-authoring the base value is a move). One side
moved -> copy it across. Both moved -> the conflict policy picks an
explicit winner, ledgered with who won and why, before either store
is touched. Values equal -> just advance the base; **no write**, so
a fixpoint stays a fixpoint (a converged pair generates no traffic).

**Echo suppression via origin-tagged provenance.** Every write the
reconciler makes carries its sync tag. Outbound: foreign journal
entries bearing the tag are skipped on import. Inbound: before
writing GUP, the (user, suffix, value) triple is registered in the
origin-tag table, and the bus record that comes back through
:class:`~repro.federation.listener.FederationListener` consumes the
tag instead of re-dirtying the pair. A synced write therefore never
produces a second sync of itself. The tag table is capped; losing a
tag to eviction only costs one spurious dirty mark that resolves as
already-equal (self-healing, counted in ``fed.tags_evicted``).

**Bounded reject queue.** Per-object failures (foreign write
rejections, reads during an outage) park the object's pending
attributes with exponential backoff; ``max_attempts`` strikes mark it
poisoned — retried only by an explicit :meth:`replay`. The queue
itself is capped; overflow raises the ``need_resync`` flag so the
next round re-derives the lost work from a full scan (no-loss).

**Privacy shield on egress.** Every outbound foreign write passes the
policy enforcement point per attribute; a denial is counted and
ledgered (``granted=False``) and the value never crosses the wire.

Crash/recovery: ``crash()`` loses the volatile dirty set and tag
table but keeps ``_base``, the cursor and the reject queue (the
connector's persistent sync database). ``resume()`` full-resyncs and
kicks the bus so the held-back GUP backlog replays whole.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.access import PolicyEnforcementPoint, RequestContext
from repro.bus import ChangeBus
from repro.bus.log import ChangeRecord
from repro.core.provenance import ProvenanceTracker
from repro.errors import (
    AdapterError,
    ForeignResyncRequiredError,
    NetworkError,
    StoreError,
)
from repro.federation.conflicts import ConflictPolicy, LastWriterWins
from repro.federation.foreign import ForeignDirectory
from repro.federation.gupview import GupAttributeStore
from repro.federation.mapping import MappingEntry, MappingTable
from repro.obs.metrics import CounterView
from repro.simnet import Network, Timer, Trace

__all__ = [
    "DEFAULT_INTERVAL_MS",
    "Reconciler",
    "RejectQueue",
    "RejectedObject",
]

#: Default sync-round cadence (virtual ms).
DEFAULT_INTERVAL_MS = 250.0

#: Wire envelope of a journal poll request / attribute read.
POLL_BYTES = 64
READ_BYTES = 96
ACK_BYTES = 32
WRITE_OVERHEAD_BYTES = 96

#: Sentinel meaning "no base value agreed yet" in three-way terms.
_NO_BASE = (None, 0.0)


class RejectedObject:
    """One parked object: which attributes are pending, how many
    strikes it has, and when it is due again."""

    __slots__ = ("user_id", "pending", "attempts", "retry_at",
                 "poisoned", "last_error")

    def __init__(self, user_id: str) -> None:
        self.user_id = user_id
        #: GUP suffixes still awaiting a successful resolution.
        # Suffixes come from the mapping table, a finite vocabulary.
        self.pending: Set[str] = set()
        self.attempts = 0
        self.retry_at = 0.0
        self.poisoned = False
        self.last_error = ""

    def __repr__(self) -> str:
        state = "poisoned" if self.poisoned else (
            "due@%.0f" % self.retry_at
        )
        return "<RejectedObject %s %d attr(s) %s>" % (
            self.user_id, len(self.pending), state,
        )


class RejectQueue:
    """Per-object retry queue with exponential backoff.

    Keyed by user id (the federated *object*), because foreign
    failures are per-entry: a constraint violation or ACL reject hits
    the whole DN, not one attribute. Objects past ``max_attempts``
    are **poisoned** — held without retries until an operator calls
    :meth:`replay` (or drops them). The queue is bounded; overflow
    trips ``need_resync`` instead of silently dropping work, and the
    owning reconciler heals by full resync.
    """

    def __init__(
        self,
        max_objects: int = 1024,
        max_attempts: int = 5,
        base_backoff_ms: float = 500.0,
        max_backoff_ms: float = 60_000.0,
    ) -> None:
        if max_objects <= 0:
            raise ValueError("max_objects must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.max_objects = max_objects
        self.max_attempts = max_attempts
        self.base_backoff_ms = base_backoff_ms
        self.max_backoff_ms = max_backoff_ms
        #: user id -> parked object. Capped at max_objects: overflow
        #: trips need_resync (counted) and the owner heals by resync.
        self._objects: Dict[str, RejectedObject] = {}
        #: Overflow happened — the owner must full-resync to recover
        #: the work this queue could not hold.
        self.need_resync = False
        self.overflowed = 0

    def note_failure(
        self,
        user_id: str,
        suffixes: Set[str],
        now: float,
        error: Exception,
    ) -> RejectedObject:
        """Park (or re-park) an object after a failed resolution."""
        entry = self._objects.get(user_id)
        if entry is None:
            if len(self._objects) >= self.max_objects:
                self.need_resync = True
                self.overflowed += 1
                # Return a throwaway record; the pending work is
                # re-derived by the resync, not remembered here.
                spill = RejectedObject(user_id)
                spill.pending.update(suffixes)
                spill.last_error = str(error)
                return spill
            entry = RejectedObject(user_id)
            self._objects[user_id] = entry
        entry.pending.update(suffixes)
        entry.attempts += 1
        entry.last_error = str(error)
        if entry.attempts >= self.max_attempts:
            entry.poisoned = True
        backoff = min(
            self.base_backoff_ms * (2.0 ** (entry.attempts - 1)),
            self.max_backoff_ms,
        )
        entry.retry_at = now + backoff
        return entry

    def note_success(self, user_id: str, suffix: str) -> None:
        """One attribute of a parked object resolved cleanly."""
        entry = self._objects.get(user_id)
        if entry is None:
            return
        entry.pending.discard(suffix)
        if not entry.pending:
            del self._objects[user_id]

    def due(self, now: float) -> List[RejectedObject]:
        """Non-poisoned objects whose backoff has elapsed."""
        return [
            entry for entry in self._objects.values()
            if not entry.poisoned and entry.retry_at <= now
        ]

    def replay(self, user_id: str, now: float) -> Optional[RejectedObject]:
        """Operator override: un-poison one object and make it due
        immediately (attempt count restarts)."""
        entry = self._objects.get(user_id)
        if entry is None:
            return None
        entry.poisoned = False
        entry.attempts = 0
        entry.retry_at = now
        return entry

    def drop(self, user_id: str) -> None:
        """Operator override: abandon one object's pending work."""
        self._objects.pop(user_id, None)

    def poisoned_objects(self) -> List[RejectedObject]:
        return sorted(
            (e for e in self._objects.values() if e.poisoned),
            key=lambda e: e.user_id,
        )

    def get(self, user_id: str) -> Optional[RejectedObject]:
        return self._objects.get(user_id)

    def __len__(self) -> int:
        return len(self._objects)

    def __repr__(self) -> str:
        return "<RejectQueue %d object(s)%s>" % (
            len(self._objects),
            " NEED-RESYNC" if self.need_resync else "",
        )


class Reconciler:
    """The sync loop between a GUP attribute store and one foreign
    directory.

    Parameters
    ----------
    node:
        The reconciler's simulated-network node; journal polls and
        outbound writes travel node <-> ``foreign.name``.
    gup / foreign:
        The two stores being reconciled.
    table:
        The attribute mapping table (per-attribute direction).
    network:
        The simulated network (topology, metrics registry, tracing).
    pep:
        The policy enforcement point gating every outbound write.
    policy:
        Conflict policy for genuinely contested attributes.
    provenance:
        Ledger receiving one record per conflict resolution and per
        shield withhold (who won and why).
    """

    rounds = CounterView("fed.rounds")
    synced_in = CounterView("fed.synced_in")
    synced_out = CounterView("fed.synced_out")
    conflicts = CounterView("fed.conflicts")
    conflict_gup_wins = CounterView("fed.conflict_gup_wins")
    conflict_foreign_wins = CounterView("fed.conflict_foreign_wins")
    conflict_merges = CounterView("fed.conflict_merges")
    echo_suppressed_in = CounterView("fed.echo_suppressed_in")
    echo_suppressed_gup = CounterView("fed.echo_suppressed_gup")
    withheld = CounterView("fed.withheld")
    rejects = CounterView("fed.rejects")
    retries = CounterView("fed.retries")
    poisoned = CounterView("fed.poisoned")
    replays = CounterView("fed.replays")
    poll_failures = CounterView("fed.poll_failures")
    resyncs = CounterView("fed.resyncs")
    tags_evicted = CounterView("fed.tags_evicted")

    def __init__(
        self,
        node: str,
        gup: GupAttributeStore,
        foreign: ForeignDirectory,
        table: MappingTable,
        network: Network,
        pep: PolicyEnforcementPoint,
        policy: Optional[ConflictPolicy] = None,
        provenance: Optional[ProvenanceTracker] = None,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        tag: Optional[str] = None,
        max_tags: int = 4096,
        reject_queue: Optional[RejectQueue] = None,
    ) -> None:
        self.node = node
        self.gup = gup
        self.foreign = foreign
        self.table = table
        self.network = network
        self.sim = gup.sim
        self.pep = pep
        self.policy = policy if policy is not None else LastWriterWins()
        self.provenance = provenance
        self.interval_ms = interval_ms
        #: Origin tag stamped on every write this reconciler makes.
        self.tag = tag if tag is not None else "sync:%s" % node
        self.max_tags = max_tags
        self.queue = (
            reject_queue if reject_queue is not None else RejectQueue()
        )
        #: The requester identity outbound writes are enforced under.
        self.foreign_context = RequestContext(
            requester=foreign.name,
            relationship="third-party",
            purpose="provision",
        )
        #: (user, suffix) -> (value, newest authored instant) both sides agreed on.
        self._base: Dict[Tuple[str, str], Tuple[str, float]] = {}
        #: Pairs awaiting resolution; drained every round.
        self._dirty: Set[Tuple[str, str]] = set()
        #: Inbound-write provenance: (user, suffix, value) -> refcount.
        #: Capped at max_tags, oldest-insertion evicted (counted); a
        #: lost tag self-heals as a no-op dirty mark.
        self._tags: Dict[Tuple[str, str, str], int] = {}
        #: Foreign journal cursor (last USN imported).
        self._cursor = 0
        self._timer: Optional[Timer] = None
        self._down = False
        self.metrics = network.metrics
        self.metrics.counter(
            "fed.rounds", help="Federation sync rounds run")
        self.metrics.counter(
            "fed.synced_in", help="Attribute values copied foreign -> GUP")
        self.metrics.counter(
            "fed.synced_out", help="Attribute values copied GUP -> foreign")
        self.metrics.counter(
            "fed.conflicts", help="Contested pairs handed to the policy")
        self.metrics.counter(
            "fed.conflict_gup_wins", help="Conflicts resolved for GUP")
        self.metrics.counter(
            "fed.conflict_foreign_wins",
            help="Conflicts resolved for the foreign directory")
        self.metrics.counter(
            "fed.conflict_merges", help="Conflicts resolved by merge")
        self.metrics.counter(
            "fed.echo_suppressed_in",
            help="Own journal entries skipped on import")
        self.metrics.counter(
            "fed.echo_suppressed_gup",
            help="Own bus records absorbed by the origin-tag table")
        self.metrics.counter(
            "fed.withheld",
            help="Outbound writes denied by the privacy shield")
        self.metrics.counter(
            "fed.rejects", help="Failed resolutions parked for retry")
        self.metrics.counter(
            "fed.retries", help="Parked objects re-marked dirty")
        self.metrics.counter(
            "fed.poisoned", help="Objects that struck out of retries")
        self.metrics.counter(
            "fed.replays", help="Explicit operator replays of poisoned objects")
        self.metrics.counter(
            "fed.poll_failures", help="Journal polls that failed")
        self.metrics.counter(
            "fed.resyncs", help="Full resyncs (window fell behind or overflow)")
        self.metrics.counter(
            "fed.tags_evicted",
            help="Origin tags evicted by the table cap")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> Timer:
        """Begin (or restart) the periodic sync loop."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.every(self.interval_ms, self.sync_round)
        return self._timer

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def crash(self) -> None:
        """Lose the volatile state: the loop stops, the node drops off
        the network (bus deliveries fail and cursors hold), and the
        in-memory dirty set and origin-tag table are gone. ``_base``,
        the journal cursor and the reject queue survive — they are the
        connector's persistent sync database."""
        self.stop()
        self._down = True
        self.network.fail(self.node)
        self._dirty.clear()
        self._tags.clear()

    def resume(self, bus: Optional[ChangeBus] = None) -> None:
        """Recover from :meth:`crash`: rejoin the network, full-resync
        (the foreign side moved while we were down), restart the loop,
        and kick the bus so the held-back GUP backlog replays."""
        self.network.restore(self.node)
        self._down = False
        self.full_resync()
        self.start()
        if bus is not None:
            bus.kick()

    def full_resync(self) -> None:
        """Mark every federated pair either side knows about dirty and
        jump the cursor to the journal head. The next rounds re-derive
        convergence from current state — already-equal pairs resolve
        as no-ops, so a resync is safe to run at any time."""
        self.resyncs += 1
        for user_id, suffix in self.gup.pairs():
            if self.table.by_suffix(suffix) is not None:
                self._dirty.add((user_id, suffix))
        try:
            for user_id in self.foreign.users():
                for attr in self.foreign.attrs_of(user_id):
                    entry = self.table.by_foreign(attr)
                    if entry is not None:
                        self._dirty.add((user_id, entry.gup_suffix))
        except StoreError:
            # Foreign is down; its half of the scan happens after the
            # next resync (the cursor jump below is still correct: a
            # down directory journals nothing).
            pass
        self._dirty.update(self._base)
        self._cursor = self.foreign.last_usn

    # -- bus-facing surface ---------------------------------------------------

    def maps_record(self, record: ChangeRecord) -> bool:
        """Does this bus record touch a federated attribute?
        (``FederationListener.wants`` — inbound-only entries still
        match: a GUP edit of a foreign-authoritative attribute must
        dirty the pair so foreign authority reasserts itself.)"""
        return self.table.split_record_path(record.path) is not None

    def note_gup_delta(self, record: ChangeRecord) -> None:
        """One GUP-side change arrived off the bus: either the echo of
        an inbound sync (consume its origin tag, suppress) or a
        genuine local edit (dirty the pair)."""
        mapped = self.table.split_record_path(record.path)
        if mapped is None:
            return
        user_id, entry = mapped
        if self._consume_tag(user_id, entry.gup_suffix, record.value):
            self.echo_suppressed_gup += 1
            return
        self._dirty.add((user_id, entry.gup_suffix))

    # -- origin tags ----------------------------------------------------------

    def _note_tag(self, user_id: str, suffix: str, value: str) -> None:
        key = (user_id, suffix, value)
        self._tags[key] = self._tags.get(key, 0) + 1
        while len(self._tags) > self.max_tags:
            oldest = next(iter(self._tags))
            del self._tags[oldest]
            self.tags_evicted += 1

    def _consume_tag(
        self, user_id: str, suffix: str, value: str
    ) -> bool:
        key = (user_id, suffix, value)
        count = self._tags.get(key)
        if count is None:
            return False
        if count <= 1:
            del self._tags[key]
        else:
            self._tags[key] = count - 1
        return True

    # -- the sync round -------------------------------------------------------

    def sync_round(self) -> int:
        """One round: import the foreign journal, re-mark due rejects,
        resolve every dirty pair. Returns the number of pairs worked
        (0 at fixpoint — the zero-oscillation gate)."""
        if self._down:
            return 0
        self.rounds += 1
        trace = self.network.trace()
        with trace.span(
            "fed.round", node=self.node, foreign=self.foreign.name,
            policy=self.policy.name,
        ):
            if self.queue.need_resync:
                self.queue.need_resync = False
                self.full_resync()
            self._import_journal(trace)
            self._retry_due()
            work = sorted(self._dirty)
            self._dirty.clear()
            for user_id, suffix in work:
                self._resolve_pair(user_id, suffix, trace)
            trace.scope.set("pairs", len(work))
        return len(work)

    def _import_journal(self, trace: Trace) -> None:
        """Poll ``changes_since(cursor)``: advance the cursor, skip
        echoes of our own exports, dirty genuinely foreign changes of
        importable attributes."""
        try:
            trace.hop(self.node, self.foreign.name, POLL_BYTES)
            changes = self.foreign.changes_since(self._cursor)
            trace.hop(
                self.foreign.name, self.node,
                POLL_BYTES + sum(c.byte_size() for c in changes),
            )
        except ForeignResyncRequiredError:
            # Cursor fell behind the retained window: the incremental
            # stream is incomplete, so re-derive from full state.
            self.full_resync()
            return
        except (NetworkError, StoreError):
            self.poll_failures += 1
            return
        for change in changes:
            self._cursor = change.usn
            if change.origin == self.tag:
                self.echo_suppressed_in += 1
                continue
            entry = self.table.by_foreign(change.attr)
            if entry is None:
                continue
            # Even out-only entries dirty the pair: foreign drift on a
            # GUP-authoritative attribute is detected here and
            # overwritten by the resolution (the mirror of a GUP edit
            # on an in-attribute dirtying via the bus listener).
            self._dirty.add((change.user_id, entry.gup_suffix))

    def _retry_due(self) -> None:
        for parked in self.queue.due(self.sim.now):
            self.retries += 1
            for suffix in parked.pending:
                self._dirty.add((parked.user_id, suffix))

    def _note_reject(
        self, user_id: str, suffix: str, error: Exception
    ) -> None:
        self.rejects += 1
        was_poisoned = (
            (parked := self.queue.get(user_id)) is not None
            and parked.poisoned
        )
        entry = self.queue.note_failure(
            user_id, {suffix}, self.sim.now, error
        )
        if entry.poisoned and not was_poisoned:
            self.poisoned += 1

    def replay(self, user_id: str) -> bool:
        """Operator override: retry a poisoned object now."""
        entry = self.queue.replay(user_id, self.sim.now)
        if entry is None:
            return False
        self.replays += 1
        for suffix in entry.pending:
            self._dirty.add((user_id, suffix))
        return True

    # -- pair resolution ------------------------------------------------------

    def _resolve_pair(
        self, user_id: str, suffix: str, trace: Trace
    ) -> None:
        entry = self.table.by_suffix(suffix)
        if entry is None:
            return
        parked = self.queue.get(user_id)
        if parked is not None and parked.poisoned \
                and suffix in parked.pending:
            # Poisoned means held: not even a full resync retries the
            # pair — only an explicit replay() does.
            return
        key = (user_id, suffix)
        gup_state = self.gup.read(user_id, suffix)
        try:
            trace.round_trip(
                self.node, self.foreign.name, READ_BYTES, READ_BYTES,
                note="fed.read",
            )
            foreign_state = self.foreign.read(
                user_id, entry.foreign_attr
            )
        except (NetworkError, StoreError, AdapterError) as err:
            self._note_reject(user_id, suffix, err)
            return
        gup_value, gup_at = (
            gup_state if gup_state is not None else (None, 0.0)
        )
        foreign_value, foreign_at = (
            foreign_state if foreign_state is not None else (None, 0.0)
        )
        if gup_value == foreign_value:
            # Converged: advance the base, write nothing. This branch
            # is why a fixpoint stays a fixpoint.
            if gup_value is not None:
                self._base[key] = (gup_value, max(gup_at, foreign_at))
            self.queue.note_success(user_id, suffix)
            return
        try:
            self._reconcile(
                user_id, entry, gup_value, gup_at,
                foreign_value, foreign_at, trace,
            )
        except (NetworkError, StoreError, AdapterError) as err:
            self._note_reject(user_id, suffix, err)
            return
        self.queue.note_success(user_id, suffix)

    def _reconcile(
        self,
        user_id: str,
        entry: MappingEntry,
        gup_value: Optional[str],
        gup_at: float,
        foreign_value: Optional[str],
        foreign_at: float,
        trace: Trace,
    ) -> None:
        """The three-way decision for one differing pair. Values are
        unequal and at least one side holds one."""
        key = (user_id, entry.gup_suffix)
        base, base_at = self._base.get(key, _NO_BASE)
        if entry.direction == "out":
            # GUP authoritative: push our value (foreign drift on an
            # out-attribute is overwritten, never imported).
            if gup_value is not None and self._push_out(
                user_id, entry, gup_value, gup_at,
                self.foreign_context, trace,
            ):
                self._base[key] = (gup_value, gup_at)
            return
        if entry.direction == "in":
            # Foreign authoritative: pull its value back over any
            # local edit. No foreign value yet -> the local edit
            # stands until one appears.
            if foreign_value is not None:
                self._pull_in(user_id, entry, foreign_value, foreign_at)
                self._base[key] = (foreign_value, foreign_at)
            return
        # direction == "both": genuine three-way merge against base.
        if gup_value is None:
            assert foreign_value is not None
            self._pull_in(user_id, entry, foreign_value, foreign_at)
            self._base[key] = (foreign_value, foreign_at)
            return
        if foreign_value is None:
            if self._push_out(
                user_id, entry, gup_value, gup_at,
                self.foreign_context, trace,
            ):
                self._base[key] = (gup_value, gup_at)
            return
        if base == gup_value and gup_at <= base_at:
            # Only foreign moved since the last agreement.
            self._pull_in(user_id, entry, foreign_value, foreign_at)
            self._base[key] = (foreign_value, foreign_at)
            return
        if base == foreign_value and foreign_at <= base_at:
            # Only GUP moved (foreign has not re-authored the base since).
            if self._push_out(
                user_id, entry, gup_value, gup_at,
                self.foreign_context, trace,
            ):
                self._base[key] = (gup_value, gup_at)
            return
        # Both sides moved (or no base yet): a real conflict.
        resolution = self.policy.resolve(
            entry, gup_value, gup_at, foreign_value, foreign_at
        )
        self.conflicts += 1
        self._ledger(
            user_id, entry,
            "policy=%s winner=%s: %s"
            % (self.policy.name, resolution.winner, resolution.reason),
            stores=("gup", self.foreign.name),
        )
        if resolution.winner == "gup":
            self.conflict_gup_wins += 1
            if self._push_out(
                user_id, entry, resolution.value, resolution.at,
                self.foreign_context, trace,
            ):
                self._base[key] = (resolution.value, resolution.at)
        elif resolution.winner == "foreign":
            self.conflict_foreign_wins += 1
            self._pull_in(
                user_id, entry, resolution.value, resolution.at
            )
            self._base[key] = (resolution.value, resolution.at)
        else:  # merge: both sides receive the combined value.
            self.conflict_merges += 1
            sent = True
            if resolution.value != foreign_value:
                sent = self._push_out(
                    user_id, entry, resolution.value, resolution.at,
                    self.foreign_context, trace,
                )
            if resolution.value != gup_value:
                self._pull_in(
                    user_id, entry, resolution.value, resolution.at
                )
            if sent:
                self._base[key] = (resolution.value, resolution.at)

    # -- the two write paths --------------------------------------------------

    def _push_out(
        self,
        user_id: str,
        entry: MappingEntry,
        value: str,
        at: float,
        context: RequestContext,
        trace: Trace,
    ) -> bool:
        """Export one attribute value to the foreign directory —
        through the privacy shield first. Returns True when the
        foreign side now holds *value* (sent), False when the shield
        withheld it (counted, ledgered, never on the wire)."""
        decision = self.pep.enforce(entry.gup_path(user_id), context)
        if not decision.permit:
            self.withheld += 1
            self._ledger(
                user_id, entry,
                "shield withheld %s from %s: %s"
                % (entry.foreign_attr, self.foreign.name,
                   "; ".join(decision.reasons) or "denied"),
                stores=(self.foreign.name,),
                granted=False,
            )
            return False
        trace.round_trip(
            self.node, self.foreign.name,
            WRITE_OVERHEAD_BYTES + len(value), ACK_BYTES,
            note="fed.write",
        )
        self.foreign.write(
            user_id, entry.foreign_attr, value,
            origin=self.tag, at=at,
        )
        self.synced_out += 1
        return True

    def _pull_in(
        self,
        user_id: str,
        entry: MappingEntry,
        value: str,
        at: float,
    ) -> None:
        """Import one attribute value into GUP. The origin tag is
        registered *before* the write, so the bus record the write
        publishes is absorbed as an echo instead of re-dirtying."""
        self._note_tag(user_id, entry.gup_suffix, value)
        self.gup.write(user_id, entry.gup_suffix, value, at=at)
        self.synced_in += 1

    # -- the audit trail ------------------------------------------------------

    def _ledger(
        self,
        user_id: str,
        entry: MappingEntry,
        note: str,
        stores: Tuple[str, ...],
        granted: bool = True,
    ) -> None:
        if self.provenance is None:
            return
        self.provenance.record(
            self.sim.now,
            self.foreign_context,
            entry.gup_path(user_id),
            stores=stores,
            operation="reconcile",
            granted=granted,
            note=note,
        )

    def __repr__(self) -> str:
        return "<Reconciler %s<->%s policy=%s cursor=%d%s>" % (
            self.node, self.foreign.name, self.policy.name,
            self._cursor, " DOWN" if self._down else "",
        )
