"""iter-order: unordered iteration feeding scheduling or results.

CPython ``set`` iteration order depends on hash seeding and insertion
history — iterating one to *schedule events* or *assemble results*
makes runs irreproducible even under a fixed RNG seed (the simulator's
determinism contract, DESIGN §3).  ``dict`` iteration is
insertion-ordered since 3.7 and is deliberately not flagged.

Flags ``for``/comprehension iteration whose iterable is set-shaped —
a ``set(...)``/``frozenset(...)`` call, a set literal, a set
operation (``union``/``intersection``/``difference``/
``symmetric_difference``), or a name bound or annotated as a set in
the same scope — when the loop body schedules simulator events or
builds output (``append``/``extend``/``add``/``yield``).  Wrapping
the iterable in ``sorted(...)`` is the canonical fix and is never
flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.framework import ModuleInfo, Rule, Violation
from repro.analysis.interproc.taint import SIM_SCHEDULERS

__all__ = ["IterOrderRule"]

_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset({
    "union", "intersection", "difference",
    "symmetric_difference", "copy",
})
_ASSEMBLERS = frozenset({"append", "extend", "add", "insert"})


def _annotation_is_set(expr: Optional[ast.expr]) -> bool:
    node = expr
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet")
    if isinstance(node, ast.Name):
        return node.id in (
            "set", "frozenset", "Set", "FrozenSet", "MutableSet",
        )
    return False


class _SetNames(ast.NodeVisitor):
    """Names bound to set-shaped values anywhere in the module."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, self.names):
            for target in node.targets:
                self._mark(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_set(node.annotation) or (
            node.value is not None
            and _is_set_expr(node.value, self.names)
        ):
            self._mark(node.target)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if _annotation_is_set(node.annotation):
            self.names.add(node.arg)
        self.generic_visit(node)

    def _mark(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            self.names.add("self.%s" % target.attr)


def _name_text(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(
        expr.value, ast.Name
    ) and expr.value.id == "self":
        return "self.%s" % expr.attr
    return None


def _is_set_expr(expr: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.SetComp):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SET_CALLS:
            return True
        if isinstance(func, ast.Attribute) \
                and func.attr in _SET_METHODS:
            # ``x.union(y)`` is set-shaped only if x is.
            base = _name_text(func.value)
            return base is not None and base in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return (
            _is_set_expr(expr.left, set_names)
            or _is_set_expr(expr.right, set_names)
        )
    text = _name_text(expr)
    return text is not None and text in set_names


def _feeds_order_sensitive(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in SIM_SCHEDULERS:
                    return True
                if node.func.attr in _ASSEMBLERS:
                    return True
    return False


class IterOrderRule(Rule):
    """Warns when unordered ``set`` iteration feeds event
    scheduling or result assembly."""

    name = "iter-order"
    description = (
        "iteration over an unordered set must not feed event "
        "scheduling or result assembly (wrap in sorted())"
    )
    prefixes = ("repro/", "tests/", "benchmarks/")
    severity = "warning"

    def check(self, module: ModuleInfo) -> List[Violation]:
        marker = _SetNames()
        marker.visit(module.tree)
        set_names = marker.names
        found: List[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                if _is_set_expr(node.iter, set_names) \
                        and _feeds_order_sensitive(node.body):
                    found.append(self.violation(
                        module, node,
                        "loop over an unordered set feeds "
                        "scheduling/result assembly — iterate "
                        "sorted(...) for deterministic replay",
                    ))
            elif isinstance(node, ast.ListComp):
                # Lists preserve iteration order; sets/dicts/
                # generators get re-ordered or re-keyed downstream
                # and are not flagged.
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_names):
                        found.append(self.violation(
                            module, comp.iter,
                            "list comprehension iterates an "
                            "unordered set — element order depends "
                            "on hash seeding; iterate sorted(...) "
                            "instead",
                        ))
        return found
