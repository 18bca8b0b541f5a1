"""handler-reentrancy: scheduled callbacks must not re-enter the loop.

A discrete-event callback that calls ``Simulator.run`` / ``step`` /
``advance`` re-enters the event loop from inside an event: the heap is
popped recursively, ``now`` jumps while the outer frame still holds
the old clock, and cancelled-timer compaction runs under a frame that
still iterates the heap.  The engine is not re-entrant by design
(``simnet/engine.py``), so this is always a bug.

Whole-program: the re-entry may be buried arbitrarily deep — this
rule checks the ``reaches_sim_run`` bit of the interprocedural
summary of every callback handed to ``schedule`` / ``schedule_at`` /
``every`` on a simulator receiver (lambdas are walked inline).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.framework import (
    ModuleInfo, ProjectRule, Violation,
)
from repro.analysis.interproc.taint import (
    SIM_RUN_METHODS, SIM_SCHEDULERS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.interproc.taint import TaintEngine
    from repro.analysis.ir.project import Project
    from repro.analysis.ir.symbols import FunctionInfo

__all__ = ["HandlerReentrancyRule"]


class HandlerReentrancyRule(ProjectRule):
    """Flags scheduled callbacks that re-enter the simulator
    loop (``run``/``step``/``advance``), transitively."""

    name = "handler-reentrancy"
    description = (
        "callbacks scheduled on the simulator must not re-enter "
        "Simulator.run/step/advance"
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
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in SIM_SCHEDULERS
                    and engine.sim_receiver(func.value, fn)
                ):
                    continue
                for candidate in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    offender = self._reentrant_callback(
                        project, engine, fn, candidate
                    )
                    if offender is not None:
                        found.append(Violation(
                            self.name, module.relpath,
                            node.lineno, node.col_offset,
                            "callback %s scheduled via %s() "
                            "re-enters the simulator loop "
                            "(Simulator.run/step/advance) — the "
                            "engine is not re-entrant"
                            % (offender, func.attr),
                            severity=self.severity,
                        ))
        return found

    def _reentrant_callback(
        self,
        project: "Project",
        engine: "TaintEngine",
        fn: "FunctionInfo",
        expr: ast.expr,
    ) -> Optional[str]:
        """Name of the offending callback, or None when safe."""
        target = self._callback_target(project, engine, fn, expr)
        if target is not None:
            summary = engine.summary_of(target.qualname)
            if summary is not None and summary.reaches_sim_run:
                return target.qualname
            return None
        if isinstance(expr, ast.Lambda):
            for node in ast.walk(expr.body):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in SIM_RUN_METHODS
                    and engine.sim_receiver(func.value, fn)
                ):
                    return "<lambda>"
                for callee in engine.resolver.resolve(
                    node, fn
                ).targets:
                    summary = engine.summary_of(callee.qualname)
                    if summary is not None \
                            and summary.reaches_sim_run:
                        return "<lambda>"
        return None

    @staticmethod
    def _callback_target(
        project: "Project",
        engine: "TaintEngine",
        fn: "FunctionInfo",
        expr: ast.expr,
    ) -> Optional["FunctionInfo"]:
        """Resolve a callback *reference* (not a call) to a project
        function: bare names via the alias map, ``self.m`` /
        ``obj.m`` via receiver typing."""
        if isinstance(expr, ast.Name):
            module = project.modules.get(fn.module_name)
            if module is None:  # pragma: no cover - defensive
                return None
            absolute = module.symbols.resolve_local(expr.id)
            if absolute is None:
                return None
            return project.functions.get(absolute)
        if isinstance(expr, ast.Attribute):
            owner = engine.resolver.receiver_class(
                expr.value, fn
            )
            if owner is None:
                return None
            return project.method_on(owner, expr.attr)
        return None
