"""Bus consumers: subscriber fan-out, cache invalidation, mirror sync.

:class:`SubscriberListener` is the egress listener — profile values
leave the system toward a requester here, so **every** delta re-checks
``pep.enforce`` under the subscriber's own context before it is
forwarded (the per-delivery shield invariant; see DESIGN.md §4.6).
Within one wave, identical (request, path, requester) pairs share the
decision through the wave memo the bus hands in — the memo never
outlives its wave, so a revocation always takes effect by the next
wave at the latest.

The in-process listeners (``node=None`` — no wire charged) coalesce
write-path housekeeping: one cache-invalidation sweep per wave over
the *distinct* changed paths, one mirror gossip round per wave instead
of one per update.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Union

from repro.access import Decision, PolicyEnforcementPoint, RequestContext
from repro.bus.bus import BusListener, ChangeBus, ShieldMemo
from repro.bus.log import ChangeRecord
from repro.pxml import Path, parse_path
from repro.seqlog import trim_oldest

__all__ = [
    "CacheInvalidationListener",
    "DEFAULT_MAX_RECORDS",
    "MirrorRefreshListener",
    "RecordingListener",
    "SubscriberListener",
]

#: Default :class:`RecordingListener` retention — roomy enough for
#: every bench, finite so an always-on recorder cannot grow forever.
DEFAULT_MAX_RECORDS = 65536

#: Called with (record, delivered_at) for each permitted delta
#: reaching the subscriber.
DeliveryCallback = Callable[[ChangeRecord, float], None]
#: Called with the withheld record when the shield denies a delta.
WithheldCallback = Callable[[ChangeRecord], None]


class _Invalidatable(Protocol):  # pragma: no cover - typing only
    def invalidate(self, path: Union[str, Path]) -> int: ...


class _Replicable(Protocol):  # pragma: no cover - typing only
    def replicate(self) -> int: ...


class SubscriberListener(BusListener):
    """Shield-checked push fan-out to one subscriber.

    ``wants`` filters to the watched value path; delivery re-enforces
    the subscription request path for every delta under the
    subscriber's context (memoized only within the current wave on
    identical pairs), forwarding permitted values and reporting
    withheld ones."""

    def __init__(
        self,
        name: str,
        node: Optional[str],
        pep: PolicyEnforcementPoint,
        request: Union[str, Path],
        watch_path: str,
        context: RequestContext,
        on_delivery: DeliveryCallback,
        on_withheld: Optional[WithheldCallback] = None,
    ) -> None:
        super().__init__(name, node)
        self._pep = pep
        self._request = parse_path(request)
        self._request_key = str(self._request)
        self.watch_path = watch_path
        self._context = context
        self._on_delivery = on_delivery
        self._on_withheld = on_withheld
        self.delivered = 0
        self.withheld = 0

    def wants(self, record: ChangeRecord) -> bool:
        return record.path == self.watch_path

    def deliver(
        self,
        records: List[ChangeRecord],
        now: float,
        bus: ChangeBus,
        memo: ShieldMemo,
    ) -> None:
        self._deliver_records(records, now, memo, self._context)

    def _deliver_records(
        self,
        records: List[ChangeRecord],
        now: float,
        memo: ShieldMemo,
        context: RequestContext,
    ) -> None:
        """Forward each delta — shield first, per delivery, never per
        batch."""
        for record in records:
            key = (
                self._request_key, record.path, context.requester,
                context.relationship, context.purpose,
            )
            decision: Optional[Decision] = memo.get(key)
            if decision is None:
                decision = self._pep.enforce(self._request, context)
                memo[key] = decision
            if decision.permit:
                self.delivered += 1
                self._on_delivery(record, now)
            else:
                self.withheld += 1
                if self._on_withheld is not None:
                    self._on_withheld(record)


class CacheInvalidationListener(BusListener):
    """Invalidates a component cache once per *distinct* changed path
    per wave — the per-update invalidation storm collapses to one
    sweep per wave. In-process: runs at the cache's own node."""

    def __init__(self, name: str, cache: _Invalidatable) -> None:
        super().__init__(name, node=None)
        self.cache = cache
        self.sweeps = 0
        self.invalidated_paths = 0
        self.coalesced = 0

    def deliver(
        self,
        records: List[ChangeRecord],
        now: float,
        bus: ChangeBus,
        memo: ShieldMemo,
    ) -> None:
        distinct: List[str] = []
        seen = set()
        for record in records:
            if record.path not in seen:
                seen.add(record.path)
                distinct.append(record.path)
        self.sweeps += 1
        self.invalidated_paths += len(distinct)
        self.coalesced += len(records) - len(distinct)
        for path in distinct:
            self.cache.invalidate(parse_path(path))


class MirrorRefreshListener(BusListener):
    """Runs one constellation gossip round per wave with pending
    changes, instead of one replication per update."""

    def __init__(self, name: str, constellation: _Replicable) -> None:
        super().__init__(name, node=None)
        self.constellation = constellation
        self.refreshes = 0
        self.replicated = 0

    def deliver(
        self,
        records: List[ChangeRecord],
        now: float,
        bus: ChangeBus,
        memo: ShieldMemo,
    ) -> None:
        self.refreshes += 1
        self.replicated += self.constellation.replicate()


class RecordingListener(BusListener):
    """Test/bench helper: remembers the last *max_records* records it
    was handed (and when), dropping the oldest beyond the cap —
    ``dropped`` counts what the window lost. With a node, it pays
    wire like any remote listener."""

    def __init__(
        self,
        name: str,
        node: Optional[str] = None,
        max_records: int = DEFAULT_MAX_RECORDS,
    ) -> None:
        super().__init__(name, node)
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        self.max_records = max_records
        self.received: List[ChangeRecord] = []
        self.delivered_at: List[float] = []
        #: Records evicted by the retention cap.
        self.dropped = 0

    def deliver(
        self,
        records: List[ChangeRecord],
        now: float,
        bus: ChangeBus,
        memo: ShieldMemo,
    ) -> None:
        self.received.extend(records)
        self.delivered_at.extend(now for _ in records)
        self.dropped += trim_oldest(
            self.max_records, self.received, self.delivered_at
        )
