"""container-growth — every long-lived container must be bounded.

The whole-program resource-bound rule (gupcheck v4, DESIGN.md §4.8):
the :class:`~repro.analysis.interproc.growth.GrowthAnalysis` engine
classifies every container attribute of a long-lived class (and every
module-level container) as **bounded**, **evicting**, **declared** or
**unbounded** — this rule reports the ``unbounded`` verdicts, plus the
declared-bound audit findings:

* an unbounded verdict names the field, its kind, and its grow sites,
  and states the three remedies (cap the growth, evict on a path the
  grow path triggers, or declare ``# gupcheck: bounded[reason] --
  justification`` on the defining line);
* a ``bounded[...]`` declaration with an empty reason, a missing
  justification, or attached to nothing the engine tracks is itself a
  violation — the declared-bound surface is audited exactly like
  suppressions, so it cannot silently rot.

A verdict's evidence can live outside the owning module's import
cone (a helper in another module growing the field through a
parameter, a subclass in a third module evicting it), which is why
the verdicts are only meaningful over the whole tree.  The engine
runs once per analysis on the shared project IR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.analysis.framework import (
    ModuleInfo, ProjectRule, Violation,
)
from repro.analysis.interproc.growth import (
    ContainerField, VERDICT_UNBOUNDED,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project

__all__ = ["ContainerGrowthRule"]


def _owner_label(field: ContainerField, owner_kind: str) -> str:
    if owner_kind == "module":
        return "module-level container `%s`" % field.name
    return "container field `%s.%s`" % (
        field.owner.rsplit(".", 1)[-1], field.name,
    )


class ContainerGrowthRule(ProjectRule):
    """Flags long-lived containers that grow without a reachable
    eviction, and audits declared-bound annotations."""

    name = "container-growth"
    description = (
        "every container of a long-lived class must be bounded, "
        "evicting on a grow path, or carry a justified "
        "`# gupcheck: bounded[...]` declaration"
    )
    prefixes = ("repro/",)

    def check_module(self, project: "Project",
                     module: ModuleInfo) -> List[Violation]:
        growth = project.growth
        found: List[Violation] = []
        for owner_name in sorted(growth.owners):
            owner = growth.owners[owner_name]
            if owner.relpath != module.relpath:
                continue
            for name in sorted(owner.fields):
                field = owner.fields[name]
                if field.verdict != VERDICT_UNBOUNDED:
                    continue
                grows = sorted(
                    {site.op for site in field.grow_sites}
                )
                found.append(Violation(
                    self.name, module.relpath, field.line, 0,
                    "%s (%s) grows (%s) with no eviction reachable "
                    "from the grow path — cap it, evict on a path "
                    "the grow path triggers, or declare "
                    "`# gupcheck: bounded[reason] -- justification` "
                    "on the defining line"
                    % (
                        _owner_label(field, owner.kind),
                        field.kind,
                        ", ".join(grows),
                    ),
                ))
        for decl in growth.declarations.get(module.relpath, ()):
            if decl.attached_to is None:
                found.append(Violation(
                    self.name, module.relpath, decl.line, 0,
                    "bounded[] declaration attaches to no tracked "
                    "container — it must sit on (or directly above) "
                    "a long-lived container's defining assignment",
                ))
                continue
            if not decl.reason:
                found.append(Violation(
                    self.name, module.relpath, decl.line, 0,
                    "bounded[] declaration for %s names no bound — "
                    "state what limits the container (a vocabulary, "
                    "an invariant, a cap)" % decl.attached_to,
                ))
            if not decl.justification:
                found.append(Violation(
                    self.name, module.relpath, decl.line, 0,
                    "bounded[%s] declaration for %s requires a "
                    "justification after `--`"
                    % (decl.reason, decl.attached_to),
                ))
        return found
