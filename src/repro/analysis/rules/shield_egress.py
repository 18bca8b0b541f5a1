"""shield-egress — profile data leaves the system only shielded.

The paper's privacy requirement (§5) is absolute: *every* read of
profile data on behalf of a requester passes the privacy shield. A new
code path that fetches from an adapter or probes the cache and returns
the fragment without an ``enforce`` is invisible to runtime tests
until someone writes the exact missing test (PR 1's cache bypass).

This rule reads the interprocedural taint engine's summaries
(:mod:`repro.analysis.interproc.taint`, where every model lives as a
data row): raw profile data is tracked from every
store/adapter/cache/sync source and every ``yield StoreGet(...)``,
through any number of helper calls, sub-programs and constructors, to
the egress surface —

* a ``return`` of a function that serves a
  :class:`~repro.access.context.RequestContext` (or a batch of them);
* a network send sink, context or not;
* inside ``repro/bus/`` and ``repro/federation/``, a delivery or
  foreign-write sink of a context-serving function.

A violation means data carrying the ``src`` label reaches one of
those with no ``enforce`` / ``_shield_cached`` on the path. Plumbing
that serves no requester (``ComponentCache`` itself, the engine's
``fetch_part``, the deliberately unshielded ``direct()`` baseline) is
not an egress surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.analysis.framework import (
    ModuleInfo, ProjectRule, Violation,
)
from repro.analysis.interproc.taint import takes_request_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project

__all__ = ["ShieldEgressRule"]


class ShieldEgressRule(ProjectRule):
    """Whole-program shield-egress: interprocedural taint from every
    profile-data source to return/send sinks, with the privacy shield
    as the only sanitizer."""

    name = "shield-egress"
    description = (
        "every profile egress serving a RequestContext must pass "
        "the privacy shield (whole-program taint)"
    )
    prefixes = ("repro/",)
    severity = "error"

    def check_module(self, project: "Project",
                     module: ModuleInfo) -> List[Violation]:
        pmodule = project.by_relpath.get(module.relpath)
        if pmodule is None:  # pragma: no cover - defensive
            return []
        engine = project.taint
        found: List[Violation] = []
        for fn in pmodule.symbols.all_functions():
            summary = engine.summary_of(fn.qualname)
            if summary is None or summary.sanitizes:
                continue
            for line, col, sink in summary.egress_sends:
                found.append(Violation(
                    self.name, module.relpath, line, col,
                    "%s hands raw profile data to egress sink "
                    "'%s' without passing the privacy shield"
                    % (fn.qualname, sink),
                    severity=self.severity,
                ))
            if not takes_request_context(fn):
                continue
            for line in summary.tainted_return_lines:
                found.append(Violation(
                    self.name, module.relpath, line, 0,
                    "%s serves a RequestContext but returns raw "
                    "profile data with no privacy-shield check "
                    "(pep.enforce) on the path" % fn.qualname,
                    severity=self.severity,
                ))
        return found
