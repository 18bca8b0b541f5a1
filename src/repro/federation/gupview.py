"""The attribute-granular GUP-side facade the reconciler syncs.

GUP queries and provisioning move whole XML components; federation
reconciles at the *attribute* grain the mapping table speaks
(``self/email`` <-> ``mail``). :class:`GupAttributeStore` is that
view: per-(user, suffix) values stamped with the virtual instant they
were authored, whose writes ride the E20 change bus exactly like the
provisioner's enter-once storms — so caches invalidate, mirrors
refresh, subscribers fan out, **and** the federation listener marks
the pair dirty, all off the same append.

``at`` lets the reconciler carry a foreign change's authored instant
across the boundary (conflict policies compare authored instants, not
copy instants); ordinary GUP-side writers leave it unset and get
``sim.now``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.bus import ChangeBus
from repro.simnet import Simulator

__all__ = ["GupAttributeStore"]


class GupAttributeStore:
    """Attribute-level profile values on the GUP side of the fence."""

    def __init__(
        self,
        sim: Simulator,
        bus: Optional[ChangeBus] = None,
    ) -> None:
        self.sim = sim
        self.bus = bus
        #: (user, gup suffix) -> (value, authored-at).
        self._values: Dict[Tuple[str, str], Tuple[str, float]] = {}
        self.writes = 0

    def bind_bus(self, bus: ChangeBus) -> None:
        self.bus = bus

    def write(
        self,
        user_id: str,
        suffix: str,
        value: str,
        at: Optional[float] = None,
    ) -> None:
        """Author one attribute value (and publish it on the bus)."""
        when = self.sim.now if at is None else at
        self._values[(user_id, suffix)] = (value, when)
        self.writes += 1
        if self.bus is not None:
            self.bus.append(
                "/user[@id='%s']/%s" % (user_id, suffix),
                value,
                user_id,
            )

    def read(
        self, user_id: str, suffix: str
    ) -> Optional[Tuple[str, float]]:
        """Current (value, authored-at) of one attribute, or None."""
        return self._values.get((user_id, suffix))

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """Every (user, suffix) pair holding a value."""
        return iter(sorted(self._values))

    def users(self) -> List[str]:
        return sorted({user for user, _suffix in self._values})

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return "<GupAttributeStore %d value(s)%s>" % (
            len(self._values),
            "" if self.bus is None else " on-bus",
        )
