"""sim-race: same-timestamp callbacks mutating the same attribute.

The discrete-event analog of a data race: two callbacks scheduled for
the *same* virtual timestamp whose relative order is a heap tie-break
detail, both mutating the same store/engine attribute.  The simulator
breaks ties deterministically by sequence number, but the *program's*
result then silently depends on the textual order of the ``schedule``
calls — refactoring reorders history.  The fix is one callback, an
explicit offset, or commutative updates.

Heuristic (intra-module, syntactic): within one scope, two
``schedule`` / ``schedule_at`` / ``every`` calls on a simulator-ish
receiver whose time argument is the *same expression* and whose
callbacks (lambdas, local functions, same-class methods) write
intersecting ``<receiver>.<attr>`` footprints.
"""

from __future__ import annotations

import ast
import itertools
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.framework import ModuleInfo, Rule, Violation
from repro.analysis.interproc.taint import SIM_SCHEDULERS

__all__ = ["SimRaceRule"]

#: Method calls that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "remove",
    "discard", "pop", "popitem", "clear", "setdefault",
})


def _receiver_text(expr: ast.expr) -> str:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return ".".join(parts)


def _sim_ish(expr: ast.expr) -> bool:
    text = _receiver_text(expr).lower()
    tail = text.rsplit(".", 1)[-1]
    return (
        tail in ("sim", "simulator")
        or tail.endswith("_sim")
        or tail.startswith("sim_")
    )


def _mutation_footprint(body: List[ast.stmt]) -> Set[str]:
    """``receiver.attr`` strings written anywhere in *body*."""
    writes: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in _MUTATORS:
                targets = [node.func.value]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    text = _receiver_text(target)
                    if text:
                        writes.add(text)
    return writes


class SimRaceRule(Rule):
    """Flags same-timestamp callbacks with intersecting mutation
    footprints (discrete-event data race)."""

    name = "sim-race"
    description = (
        "two callbacks scheduled at the same virtual timestamp must "
        "not mutate the same attribute (heap tie-break race)"
    )
    prefixes = ("repro/",)
    severity = "error"

    def check(self, module: ModuleInfo) -> List[Violation]:
        found: List[Violation] = []
        index = _CallbackIndex(module.tree)
        for scope in _scopes(module.tree):
            found.extend(self._check_scope(module, scope, index))
        return found

    def _check_scope(
        self,
        module: ModuleInfo,
        scope: List[ast.stmt],
        index: "_CallbackIndex",
    ) -> List[Violation]:
        # (scheduler, time-expr dump) -> scheduled callbacks.
        groups: Dict[Tuple[str, str], List[Tuple[ast.Call, str, Set[str]]]] = {}
        for stmt in scope:
            for node in _walk_scope(stmt):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in SIM_SCHEDULERS
                    and _sim_ish(node.func.value)
                    and node.args
                ):
                    continue
                time_key = ast.dump(node.args[0])
                callback = (
                    node.args[1] if len(node.args) > 1 else None
                )
                if callback is None:
                    for kw in node.keywords:
                        if kw.arg in ("callback", "fn", "func"):
                            callback = kw.value
                            break
                if callback is None:
                    continue
                label, writes = index.footprint(callback)
                groups.setdefault(
                    (node.func.attr, time_key), []
                ).append((node, label, writes))
        found: List[Violation] = []
        for (scheduler, _), entries in sorted(
            groups.items(), key=lambda item: item[0]
        ):
            if len(entries) < 2:
                continue
            for (_, label_a, writes_a), (node_b, label_b, writes_b) \
                    in itertools.combinations(entries, 2):
                shared = writes_a & writes_b
                if not shared:
                    continue
                found.append(self.violation(
                    module, node_b,
                    "callbacks %s and %s are %s()d for the same "
                    "virtual timestamp and both mutate '%s' — "
                    "event order is a heap tie-break detail"
                    % (label_a, label_b, scheduler,
                       sorted(shared)[0]),
                ))
        return found


def _scopes(tree: ast.Module) -> List[List[ast.stmt]]:
    """Module body + every function body (methods included)."""
    picked: List[List[ast.stmt]] = [list(tree.body)]
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            picked.append(list(node.body))
    return picked


def _walk_scope(stmt: ast.stmt) -> List[ast.AST]:
    """Like ``ast.walk`` but without descending into nested
    function/class definitions — those are scanned as their own
    scopes, so descending here would double-count every group."""
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return []  # a nested scope of its own
    picked: List[ast.AST] = []
    pending: List[ast.AST] = [stmt]
    while pending:
        node = pending.pop()
        picked.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            pending.append(child)
    return picked


class _CallbackIndex:
    """Resolves callback references to mutation footprints."""

    def __init__(self, tree: ast.Module) -> None:
        #: function/method name -> body (last definition wins; the
        #: rule is a syntactic heuristic, not a binder).
        self._bodies: Dict[str, List[ast.stmt]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                self._bodies[node.name] = list(node.body)

    def footprint(
        self, callback: ast.expr
    ) -> Tuple[str, Set[str]]:
        """(display label, attributes written) for a callback ref."""
        if isinstance(callback, ast.Lambda):
            body = [ast.Expr(value=callback.body)]
            return "<lambda>", _mutation_footprint(body)
        name = self._callback_name(callback)
        if name is not None and name in self._bodies:
            return name, _mutation_footprint(self._bodies[name])
        return _receiver_text(callback) or "<callback>", set()

    @staticmethod
    def _callback_name(callback: ast.expr) -> Optional[str]:
        if isinstance(callback, ast.Name):
            return callback.id
        if isinstance(callback, ast.Attribute):
            return callback.attr
        return None
