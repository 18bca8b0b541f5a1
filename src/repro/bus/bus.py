"""The change bus: coalescing notifier with per-listener cursors.

``append`` is cheap bookkeeping (the write path already paid its
network cost); propagation happens in **waves**. A wave is armed when
a change arrives with listeners attached, fires ``wave_ms`` later, and
delivers to each listener *everything* logged since that listener's
cursor — one batched delivery charged **one simulated round trip per
(listener, wave)**, exactly the E19 batch-execution cost model applied
to the write path. Compute (shield checks, cache invalidation) stays
per delta; only the wire cost amortizes.

Cursors make delivery resumable: a listener whose node is failed at
flush time gets nothing and its cursor does not move, so the next wave
after recovery replays the whole backlog — no change is lost, none is
delivered twice. After every wave the bus compacts each shard log up
to the minimum cursor, bounding memory by the slowest listener.

Deliveries to one listener form a FIFO channel: a wave's batch never
*overtakes* an earlier wave's batch still in flight to the same
listener, even when the earlier payload is much larger (a fat
recovery replay transfers slowly at simulated bandwidth; without the
ordering floor, the next small wave would land first and the listener
would observe changes out of order — the E20 benchmark's crash/resume
gate caught exactly that).

Failure/retry semantics: the bus does not self-reschedule while a
listener is down (that would spin the event heap forever on an idle
simulation). The backlog drains at the next wave a fresh append arms,
or an explicit :meth:`ChangeBus.kick` after the operator restores the
node — both deterministic.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.bus.log import ChangeLog, ChangeRecord
from repro.obs.metrics import CounterView
from repro.simnet import Network, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.access import Decision

__all__ = ["BusListener", "ChangeBus", "DEFAULT_WAVE_MS", "ShieldMemo"]

#: How long appended changes pool before a wave flushes them.
DEFAULT_WAVE_MS = 50.0

#: Fixed framing overhead of one wave message (mirrors the executor's
#: REQUEST_OVERHEAD_BYTES on the read path).
WAVE_OVERHEAD_BYTES = 80

#: Ack size for the delivery round trip.
ACK_BYTES = 32

#: Shard key used when no router is bound (single logical store).
DEFAULT_SHARD = "main"

#: Per-wave privacy-shield memo: identical (request, delta path,
#: requester, relationship, purpose) tuples within ONE wave share a
#: decision; the memo dies with the wave.
ShieldMemo = Dict[Tuple[str, str, str, str, str], "Decision"]


class BusListener:
    """Base class for bus consumers.

    ``node`` names the simnet endpoint the wave delivery travels to
    (one round trip per wave is charged); ``None`` marks an in-process
    listener (cache invalidation at the origin, mirror refresh) whose
    deliveries cost no wire."""

    def __init__(self, name: str, node: Optional[str] = None) -> None:
        self.name = name
        self.node = node

    def wants(self, record: ChangeRecord) -> bool:
        """Filter: does this listener care about *record*? Cursors
        advance past filtered records either way."""
        return True

    def deliver(
        self,
        records: List[ChangeRecord],
        now: float,
        bus: "ChangeBus",
        memo: ShieldMemo,
    ) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        where = self.node if self.node is not None else "in-process"
        return "<%s %s @%s>" % (type(self).__name__, self.name, where)


class ChangeBus:
    """Per-shard change logs + the coalescing wave notifier.

    Counters live in the network's shared metrics registry under
    ``bus.*`` (the integer attributes are views), alongside ``net.*``,
    ``cache.*`` and ``sub.*``."""

    appends = CounterView("bus.appends")
    waves = CounterView("bus.waves")
    messages = CounterView("bus.messages")
    deliveries = CounterView("bus.deliveries")
    delivery_failures = CounterView("bus.delivery_failures")
    records_delivered = CounterView("bus.records_delivered")
    records_compacted = CounterView("bus.records_compacted")

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        origin_node: str,
        wave_ms: float = DEFAULT_WAVE_MS,
    ) -> None:
        if wave_ms <= 0:
            raise ValueError("wave interval must be positive")
        self.sim = sim
        self.network = network
        self.origin_node = origin_node
        self.wave_ms = wave_ms
        self.metrics = network.metrics
        self.metrics.counter(
            "bus.appends", help="Changes appended to the bus logs.",
        )
        self.metrics.counter(
            "bus.waves", help="Coalescing waves flushed.",
        )
        self.metrics.counter(
            "bus.messages",
            help="Wire messages spent on wave deliveries (req+ack).",
        )
        self.metrics.counter(
            "bus.deliveries",
            help="Successful (listener, wave) batched deliveries.",
        )
        self.metrics.counter(
            "bus.delivery_failures",
            help="Waves skipped because the listener node was down "
                 "(cursor unmoved; backlog replays on recovery).",
        )
        self.metrics.counter(
            "bus.records_delivered",
            help="Change records handed to listeners.",
        )
        self.metrics.counter(
            "bus.records_compacted",
            help="Log records dropped once every cursor passed them.",
        )
        self.metrics.gauge(
            "bus.backlog",
            help="Change records retained across all shard logs.",
            fn=self._retained,
        ).bind(self._retained)
        # gupcheck: bounded[shard-vocab] -- one log per shard id, fixed at wiring time
        self._logs: Dict[str, ChangeLog] = {}
        self._router: Optional[Callable[[str], str]] = None
        # gupcheck: bounded[attach-detach] -- one entry per attached listener; detach() removes it
        self._listeners: List[BusListener] = []
        #: listener name -> shard -> last consumed sequence number.
        # gupcheck: bounded[attach-detach] -- keyed by attached listener; detach() deletes the entry
        self._cursors: Dict[str, Dict[str, int]] = {}
        #: listener name -> virtual instant its latest in-flight
        #: delivery arrives (the FIFO-per-listener ordering floor).
        # gupcheck: bounded[attach-detach] -- keyed by attached listener; detach() pops the entry
        self._last_arrival: Dict[str, float] = {}
        self._wave_armed = False

    # -- sharding -------------------------------------------------------------

    def use_shard_router(
        self,
        router: Callable[[str], str],
        shard_ids: Sequence[str] = (),
    ) -> None:
        """Route appends by ``router(user_id)`` into per-shard logs
        (pre-creating logs for *shard_ids* so cursors snapshot them)."""
        self._router = router
        for shard_id in shard_ids:
            self.log_for(shard_id)

    def log_for(self, shard_id: str) -> ChangeLog:
        log = self._logs.get(shard_id)
        if log is None:
            log = ChangeLog(shard_id)
            self._logs[shard_id] = log
        return log

    def _shard_key(self, user_id: Optional[str]) -> str:
        if self._router is not None and user_id is not None:
            return self._router(user_id)
        return DEFAULT_SHARD

    # -- the write side -------------------------------------------------------

    def append(
        self,
        path: str,
        value: str,
        user_id: Optional[str] = None,
    ) -> ChangeRecord:
        """Log one change at ``sim.now`` and arm the next wave. This is
        bookkeeping only — the write that produced the change already
        paid its own network cost."""
        log = self.log_for(self._shard_key(user_id))
        record = log.append(self.sim.now, path, value, user_id)
        self.appends += 1
        if self._listeners:
            self._arm_wave()
        else:
            # Nobody replays: keep only the latest-change index (the
            # poll path's question) and drop the history eagerly.
            self.records_compacted += log.compact(log.last_seq)
        return record

    # -- listeners ------------------------------------------------------------

    def attach(self, listener: BusListener) -> None:
        """Register *listener*; its cursors start at each shard log's
        current head, so it sees changes from now on."""
        if listener.name in self._cursors:
            raise ValueError(
                "listener %r already attached" % listener.name
            )
        self._listeners.append(listener)
        self._cursors[listener.name] = {
            shard_id: log.last_seq
            for shard_id, log in self._logs.items()
        }

    def detach(self, listener: BusListener) -> None:
        self._listeners.remove(listener)
        del self._cursors[listener.name]
        self._last_arrival.pop(listener.name, None)

    def cursor(self, listener_name: str) -> Dict[str, int]:
        """A copy of one listener's per-shard cursors."""
        return dict(self._cursors[listener_name])

    def pending_for(self, listener: BusListener) -> int:
        """Records logged past *listener*'s cursors — O(shards)."""
        cursors = self._cursors[listener.name]
        return sum(
            log.backlog(cursors.get(shard_id, 0))
            for shard_id, log in self._logs.items()
        )

    # -- the poll path's question ---------------------------------------------

    def changed_at(self, path: str, value: str) -> Optional[float]:
        """When the change producing *value* at *path* happened, or
        ``None`` when no log knows (never logged, or superseded)."""
        best: Optional[float] = None
        for log in self._logs.values():
            when = log.changed_at(path, value)
            if when is not None and (best is None or when > best):
                best = when
        return best

    # -- waves ----------------------------------------------------------------

    def kick(self) -> bool:
        """Arm a wave if any listener has backlog (used after a failed
        listener's node is restored). Returns whether one was armed."""
        if any(
            self.pending_for(listener) for listener in self._listeners
        ):
            self._arm_wave()
            return True
        return False

    def _arm_wave(self) -> None:
        if not self._wave_armed:
            self._wave_armed = True
            self.sim.schedule(self.wave_ms, self._flush)

    def _flush(self) -> None:
        """One wave: per listener, batch everything past its cursors
        into a single delivery (one round trip), then compact."""
        self._wave_armed = False
        self.waves += 1
        memo: ShieldMemo = {}
        for listener in self._listeners:
            cursors = self._cursors[listener.name]
            batch: List[ChangeRecord] = []
            advanced: Dict[str, int] = {}
            for shard_id in sorted(self._logs):
                pending = self._logs[shard_id].since(
                    cursors.get(shard_id, 0)
                )
                if pending:
                    advanced[shard_id] = pending[-1].seq
                    batch.extend(
                        record for record in pending
                        if listener.wants(record)
                    )
            if not advanced:
                continue
            if not batch:
                # Nothing this listener wants: advance past the
                # filtered records without charging any wire.
                cursors.update(advanced)
                continue
            if listener.node is not None \
                    and self.network.is_failed(listener.node):
                # Down at flush: deliver nothing, move no cursor. The
                # backlog replays whole once the node is back.
                self.delivery_failures += 1
                continue
            cursors.update(advanced)
            batch.sort(key=lambda r: (r.at, r.shard, r.seq))
            if listener.node is None:
                self._hand_over(listener, batch, memo)
            else:
                payload = WAVE_OVERHEAD_BYTES + sum(
                    record.byte_size() for record in batch
                )
                latency = self.network.sample_hop(
                    self.origin_node, listener.node, payload
                )
                # One round trip per (listener, wave): the batched
                # notification plus its ack. The ack's latency sits on
                # no caller's critical path, so only the message is
                # accounted.
                self.messages += 2
                # FIFO channel per listener: this batch must not land
                # before the previous one (a slow fat replay would
                # otherwise be overtaken by the next small wave). At
                # equal instants the event heap keeps schedule order.
                arrival = max(
                    self.sim.now + latency,
                    self._last_arrival.get(listener.name, 0.0),
                )
                self._last_arrival[listener.name] = arrival
                self.sim.schedule(
                    arrival - self.sim.now,
                    self._hand_over, listener, batch, memo,
                )
        self._compact()

    def _hand_over(
        self,
        listener: BusListener,
        batch: List[ChangeRecord],
        memo: ShieldMemo,
    ) -> None:
        listener.deliver(batch, self.sim.now, self, memo)
        self.deliveries += 1
        self.records_delivered += len(batch)

    def _compact(self) -> None:
        for shard_id, log in self._logs.items():
            if self._listeners:
                floor = min(
                    self._cursors[listener.name].get(shard_id, 0)
                    for listener in self._listeners
                )
            else:
                floor = log.last_seq
            self.records_compacted += log.compact(floor)

    # -- introspection --------------------------------------------------------

    def _retained(self) -> float:
        return float(sum(len(log) for log in self._logs.values()))

    @property
    def listeners(self) -> List[BusListener]:
        return list(self._listeners)

    def __repr__(self) -> str:
        return "<ChangeBus %s %d shard(s) %d listener(s)>" % (
            self.origin_node, len(self._logs), len(self._listeners),
        )
