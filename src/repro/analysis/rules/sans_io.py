"""sans-io-purity — the protocol core stays off the wire.

The query engine is sans-io: protocol logic yields I/O *intents* and
a driver performs them — ``repro.simnet`` in virtual time,
``repro.serve``'s asyncio transport on the wall clock.  Two drivers
can share one engine only while the boundary is real — so this rule
pins it, machine-checked, on every run:

    every function in ``repro/core/``, ``repro/pxml/`` and
    ``repro/sansio/`` (and the pure replay structures
    ``repro/seqlog.py`` and ``repro/bus/log.py``) must infer as
    ``pure`` or ``virtual-time``.

``virtual-time`` is allowed because charging the Trace cost ledger
*is* the intent layer — the engine records what a hop would cost
without sampling the wire.  ``transport`` (direct
``network.sample_hop`` / fault injection, however many calls deep)
and ``wall-io`` (real clocks, files, sockets) mean protocol logic
has grown a dependency on one driver that the other cannot honour.
Effects come from the
interprocedural summary fixpoint
(:mod:`repro.analysis.interproc.effects`), so a violation names the
function whose *transitive* behaviour crosses the line — the fix is
to move the wire code behind an injected callback or into
``bus``/``simnet``, the way ``SubscriptionHub.start_push`` leaves
every wire hop to the change bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.analysis.framework import (
    ModuleInfo, ProjectRule, Violation,
)
from repro.analysis.interproc.effects import (
    EFFECT_PURE, EFFECT_VIRTUAL_TIME,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project

__all__ = ["SansIoPurityRule"]

#: Effect tiers the sans-io core may carry.
_ALLOWED = (EFFECT_PURE, EFFECT_VIRTUAL_TIME)


class SansIoPurityRule(ProjectRule):
    """Flags transport/wall-io effects inside the sans-io core."""

    name = "sans-io-purity"
    description = (
        "core/, pxml/, sansio/, seqlog.py and bus/log.py are the sans-io "
        "boundary: every function there must be pure or virtual-time "
        "— transport stays behind bus/, simnet/ and serve/"
    )
    prefixes = (
        "repro/core/", "repro/pxml/", "repro/seqlog.py",
        "repro/bus/log.py",
        # The sans-io engine itself is the boundary's whole point:
        # programs yield intents, drivers perform them. Nothing under
        # repro/sansio/ may touch the wire — the drivers live in
        # simnet/ (virtual) and serve/ (wall).
        "repro/sansio/",
    )
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
            if summary is None or summary.effect in _ALLOWED:
                continue
            found.append(Violation(
                self.name, module.relpath,
                fn.node.lineno, fn.node.col_offset,
                "%s infers as `%s` inside the sans-io core — "
                "protocol logic must stay pure/virtual-time; move "
                "the I/O behind an injected driver (bus/, simnet/)"
                % (fn.qualname, summary.effect),
                severity=self.severity,
            ))
        return found
