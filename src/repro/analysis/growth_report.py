"""The ``--growth`` inventory: ``.gupcheck-growth.json``.

A machine-readable snapshot of every long-lived container the
resource-bound engine (:mod:`repro.analysis.interproc.growth`) tracks
— per owner (class or module), per field: the container kind, the
verdict (``bounded`` / ``evicting`` / ``declared`` / ``unbounded``),
the reason, and the grow/shrink evidence sites, so CI can archive the
inventory and humans can diff where memory can go.

The payload is deterministic for a given tree: owners and fields are
sorted, and the engine itself is deterministic (callees-first over
call SCCs, sorted worklists).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.analysis.interproc.growth import VERDICTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project

__all__ = ["GROWTH_FILENAME", "SCHEMA", "growth_payload"]

#: Default artifact name, next to ``.gupcheck-effects.json``.
GROWTH_FILENAME = ".gupcheck-growth.json"

#: Bumped when the payload shape changes.
SCHEMA = "gupcheck-growth/1"


def growth_payload(project: "Project") -> Dict[str, Any]:
    """The growth inventory of *project*: every tracked container
    with its verdict and evidence."""
    growth = project.growth
    owners: Dict[str, Any] = {}
    for qualname in sorted(growth.owners):
        owner = growth.owners[qualname]
        if not owner.fields:
            continue
        owners[qualname] = owner.to_dict()
    unbounded: List[Dict[str, Any]] = []
    for field in growth.unbounded():
        unbounded.append({
            "owner": field.owner,
            "field": field.name,
            "kind": field.kind,
            "relpath": field.relpath,
            "line": field.line,
            "grow_sites": [s.to_dict() for s in field.grow_sites],
        })
    declarations: List[Dict[str, Any]] = []
    for relpath in sorted(growth.declarations):
        for decl in growth.declarations[relpath]:
            declarations.append({
                "relpath": relpath,
                "line": decl.line,
                "reason": decl.reason,
                "justification": decl.justification or "",
                "attached_to": decl.attached_to,
            })
    return {
        "schema": SCHEMA,
        "verdicts": list(VERDICTS),
        "counts": growth.counts(),
        "owners": owners,
        "declarations": declarations,
        "unbounded": unbounded,
        "clean": not unbounded,
    }
