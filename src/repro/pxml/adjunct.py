"""Schema Adjunct Framework (paper Sections 2.3(8) and 7).

The paper proposes "expand[ing] on the traditional meta-data
representations ... to include information about data placement, rules
for data reconciliation, etc." and asks "how should the Schema Adjunct
Framework [26] be applied to capture these aspects?"

A :class:`SchemaAdjunct` attaches named properties to schema regions
(XPath-fragment paths): per-component cache TTLs, reconciliation
policies, placement constraints, sensitivity labels. Lookup resolves
the most specific covering region — so ``/user/wallet`` can carry
``cache-ttl=0`` while ``/user`` defaults to 60s.

GUPster consumes adjuncts through :meth:`property_for`; experiments
use them for the per-component reconciliation/caching ablations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import PXMLError
from repro.pxml.path import Path, parse_path
from repro.pxml.containment import subtree_covers

__all__ = ["SchemaAdjunct", "GUP_ADJUNCT", "build_gup_adjunct"]


class SchemaAdjunct:
    """Named properties attached to schema regions."""

    def __init__(self, name: str = "adjunct"):
        self.name = name
        #: property -> list of (region path, value); order irrelevant,
        #: specificity (depth, predicate count) decides.
        # attach() replaces a region's value: one per (property, region).
        self._entries: Dict[str, List[Tuple[Path, object]]] = {}

    def attach(
        self, region: Union[str, Path], prop: str, value: object
    ) -> None:
        parsed = parse_path(region)
        if parsed.attribute is not None:
            raise PXMLError(
                "adjuncts attach to element regions, not attributes"
            )
        bucket = self._entries.setdefault(prop, [])
        bucket[:] = [
            (path, v) for path, v in bucket if path != parsed
        ]
        bucket.append((parsed, value))

    def property_for(
        self,
        target: Union[str, Path],
        prop: str,
        default: object = None,
    ) -> object:
        """Value of *prop* at *target*: the most specific attached
        region that covers the target wins."""
        parsed = parse_path(target)
        best: Optional[Tuple[int, int, object]] = None
        for region, value in self._entries.get(prop, ()):
            if not subtree_covers(region, parsed):
                continue
            specificity = (
                region.depth,
                sum(len(step.predicates) for step in region.steps),
            )
            if best is None or specificity > best[:2]:
                best = (specificity[0], specificity[1], value)
        return best[2] if best is not None else default

    def properties_at(
        self, target: Union[str, Path]
    ) -> Dict[str, object]:
        """All effective properties at *target*."""
        return {
            prop: self.property_for(target, prop)
            for prop in self._entries
            if self.property_for(target, prop) is not None
        }

    def regions(self, prop: str) -> List[str]:
        return sorted(
            str(path) for path, _v in self._entries.get(prop, ())
        )


def build_gup_adjunct() -> SchemaAdjunct:
    """The default adjunct for the GUP schema: caching and
    reconciliation metadata per component, with sensible sensitivity
    labels. Mirrors the kinds of facts the paper wants re-ified next
    to the schema."""
    adjunct = SchemaAdjunct("gup-defaults")
    # Cache TTLs: volatile components cache briefly, stable ones long.
    adjunct.attach("/user", "cache-ttl-ms", 60_000.0)
    adjunct.attach("/user/presence", "cache-ttl-ms", 2_000.0)
    adjunct.attach("/user/location", "cache-ttl-ms", 2_000.0)
    adjunct.attach("/user/call-status", "cache-ttl-ms", 500.0)
    adjunct.attach("/user/address-book", "cache-ttl-ms", 300_000.0)
    adjunct.attach("/user/wallet", "cache-ttl-ms", 0.0)  # never cache
    # Reconciliation policy per component.
    adjunct.attach("/user", "reconcile", "merge")
    adjunct.attach("/user/presence", "reconcile", "last-writer-wins")
    adjunct.attach("/user/wallet", "reconcile", "server-wins")
    # Sensitivity labels drive placement constraints.
    adjunct.attach("/user", "sensitivity", "normal")
    adjunct.attach("/user/wallet", "sensitivity", "restricted")
    adjunct.attach("/user/calendar", "sensitivity", "private")
    adjunct.attach(
        "/user/address-book/item[@type='personal']",
        "sensitivity", "private",
    )
    return adjunct


#: Shared default instance.
GUP_ADJUNCT = build_gup_adjunct()
