"""The bus listener feeding GUP-side deltas to the reconciler.

Foreign-bound deltas come off the E20 change bus, not from polling:
the listener's ``wants`` filter keeps only records whose path the
mapping table federates outward, and delivery hands each record to
the reconciler, which either **suppresses it as an echo** (the record
is the bus shadow of a foreign change the reconciler itself imported
— re-exporting it would bounce the change back forever) or marks the
(user, attribute) pair dirty for the next sync round.

The listener runs at the reconciler's node, so wave deliveries pay
one simulated round trip and honor the bus's crash/replay contract:
while the reconciler node is down, cursors hold and the backlog
replays whole on recovery — the no-loss half of the E22 gates.

No shield here: the reconciler is GUPster's own component, not a
requester. The privacy shield runs where data actually leaves the
system — per attribute, on the reconciler's outbound foreign writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.bus.bus import BusListener
from repro.bus.log import ChangeRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.reconciler import Reconciler

__all__ = ["FederationListener"]


class FederationListener(BusListener):
    """Routes federated GUP changes into the reconciler's dirty set."""

    def __init__(
        self, name: str, reconciler: "Reconciler"
    ) -> None:
        super().__init__(name, node=reconciler.node)
        self.reconciler = reconciler
        self.routed = 0

    def wants(self, record: ChangeRecord) -> bool:
        return self.reconciler.maps_record(record)

    def deliver(self, records: List[ChangeRecord], now: float) -> None:
        for record in records:
            self.routed += 1
            self.reconciler.note_gup_delta(record)
