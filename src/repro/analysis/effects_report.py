"""The ``--effects`` boundary map: ``.gupcheck-effects.json``.

A machine-readable snapshot of the inferred effect of every project
function (see :mod:`repro.analysis.interproc.effects` for the
lattice), plus a per-module join and an explicit verdict on the
sans-io boundary — the contract the :class:`~repro.analysis.rules.
sans_io.SansIoPurityRule` enforces, exported here so CI can archive
the map and humans can diff where the wire actually lives.

The payload is deterministic for a given tree: functions and modules
are sorted by qualname/relpath, and the effect fixpoint itself is
deterministic (deps-first over call SCCs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

from repro.analysis.interproc.effects import (
    EFFECTS, EFFECT_PURE, EFFECT_VIRTUAL_TIME, join_effects,
)
from repro.analysis.rules.sans_io import SansIoPurityRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project

__all__ = ["EFFECTS_FILENAME", "SCHEMA", "effects_payload"]

#: Default artifact name.
EFFECTS_FILENAME = ".gupcheck-effects.json"

#: Bumped when the payload shape changes.
SCHEMA = "gupcheck-effects/1"


def effects_payload(project: "Project") -> Dict[str, Any]:
    """The boundary map of *project*: the transitive effect of every
    function, as the interprocedural fixpoint inferred it."""
    functions: Dict[str, Dict[str, str]] = {}
    module_join: Dict[str, str] = {}
    counts = {effect: 0 for effect in EFFECTS}
    for pmodule in project.modules_in_order():
        relpath = pmodule.info.relpath
        for fn in pmodule.symbols.all_functions():
            summary = project.taint.summary_of(fn.qualname)
            effect = summary.effect if summary is not None else EFFECT_PURE
            functions[fn.qualname] = {
                "relpath": relpath,
                "line": fn.node.lineno,
                "effect": effect,
            }
            counts[effect] += 1
            module_join[relpath] = join_effects(
                module_join.get(relpath, EFFECT_PURE), effect
            )

    boundary_prefixes = list(SansIoPurityRule.prefixes)
    violations: List[Dict[str, Any]] = []
    for qualname in sorted(functions):
        entry = functions[qualname]
        relpath = entry["relpath"]
        if not any(relpath.startswith(p) for p in boundary_prefixes):
            continue
        if entry["effect"] in (EFFECT_PURE, EFFECT_VIRTUAL_TIME):
            continue
        violations.append({
            "qualname": qualname,
            "relpath": relpath,
            "line": entry["line"],
            "effect": entry["effect"],
        })

    return {
        "schema": SCHEMA,
        "effects": list(EFFECTS),
        "counts": counts,
        "functions": {
            qualname: functions[qualname]
            for qualname in sorted(functions)
        },
        "modules": {
            relpath: module_join[relpath]
            for relpath in sorted(module_join)
        },
        "boundary": {
            "prefixes": boundary_prefixes,
            "clean": not violations,
            "violations": violations,
        },
    }
