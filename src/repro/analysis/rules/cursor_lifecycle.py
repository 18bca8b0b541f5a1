"""cursor-lifecycle — bus replay cursors are not reused stale.

A replay cursor snapshot (``bus.cursor("mirror")``) is a *point in
the log*, valid only until the log moves underneath it: an
``append`` arms the next wave (whose flush advances the live
cursors past the snapshot) and a ``compact`` may physically drop the
records the snapshot still points at.  Replaying from a stale
snapshot (``log.since(cur)`` / ``log.backlog(cur)``) silently skips
or double-counts changes — the exact class of bug the E20
crash/resume gate exists to catch, here caught statically.

The typestate is per local variable over the function CFG:

* ``x = <bus-ish>.cursor(...)`` puts ``x`` in the FRESH state;
* any ``append(...)`` / ``compact(...)`` call on a bus/log-ish
  receiver moves **every** live snapshot to STALE (the log may have
  moved past all of them);
* using a STALE snapshot in ``since(...)`` / ``backlog(...)`` on a
  bus/log-ish receiver is the violation;
* re-obtaining the snapshot (``x = bus.cursor(...)`` again) makes it
  FRESH on that path.

Join is must-fresh: a snapshot stale on *any* incoming path is stale
at the merge — replay safety has to hold on every path.  Receivers
are recognized by a trailing-identifier heuristic for log/bus
objects (``bus``, ``log``, ``*_bus``, ``*_log``,
``self._logs[...]``) — the same spirit as the taint engine's
receiver markers (``_MARKER_SOURCES`` in ``interproc/taint.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.framework import ModuleInfo, Violation
from repro.analysis.rules._typestate import (
    TypestateMachine,
    TypestateRule,
    names_in,
)

__all__ = ["CursorLifecycleRule"]

_FRESH = "fresh"
_STALE = "stale"

#: State: snapshot variable -> _FRESH | _STALE.
_State = Dict[str, str]

#: Calls that move the log underneath live snapshots.
_MOVERS = frozenset({"append", "compact"})

#: Calls that replay from a snapshot argument.
_REPLAYERS = frozenset({"since", "backlog"})


def _trailing_identifier(node: ast.AST) -> Optional[str]:
    """``bus`` / ``self._log`` / ``self._logs[k]`` → the last
    attribute-ish identifier."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _trailing_identifier(node.value)
    return None


def _busish(node: ast.AST) -> bool:
    name = _trailing_identifier(node)
    if name is None:
        return False
    name = name.lstrip("_").lower()
    return (
        name in ("bus", "log", "logs", "changelog", "changebus")
        or name.endswith("_bus") or name.endswith("_log")
        or name.endswith("_logs")
    )


def _calls_in(stmt: ast.stmt) -> List[ast.Call]:
    """Calls the statement's own evaluation performs.  Compound
    bodies live in other CFG blocks; only headers are scanned."""
    if isinstance(stmt, (ast.If, ast.While)):
        roots: List[ast.AST] = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        roots = [stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        roots = []
    elif isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        roots = []  # nested scope: its calls run later, elsewhere
    else:
        roots = [stmt]
    calls: List[ast.Call] = []
    for root in roots:
        calls.extend(
            node for node in ast.walk(root)
            if isinstance(node, ast.Call)
        )
    return calls


def _snapshot_bind(stmt: ast.stmt) -> Optional[str]:
    """``name = <bus-ish>.cursor(...)`` → ``name``."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr == "cursor"
        and _busish(stmt.value.func.value)
    ):
        return stmt.targets[0].id
    return None


class _CursorMachine(TypestateMachine):
    def initial(self) -> _State:
        return {}

    def join(self, left: _State, right: _State) -> _State:
        # Must-fresh: differing marks at a merge go stale; a snapshot
        # live on only one branch keeps that branch's mark.
        merged = dict(left)
        for name, mark in right.items():
            merged[name] = (
                mark if merged.get(name, mark) == mark else _STALE
            )
        return merged

    def step(self, state: _State, stmt: ast.stmt) -> _State:
        bound = _snapshot_bind(stmt)
        if bound is not None:
            new = dict(state)
            new[bound] = _FRESH
            return new
        moved = any(
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MOVERS
            and _busish(call.func.value)
            for call in _calls_in(stmt)
        )
        if moved and state:
            return {name: _STALE for name in state}
        if isinstance(stmt, ast.Assign):
            # Rebinding to anything else forgets the snapshot.
            targets = {
                target.id for target in stmt.targets
                if isinstance(target, ast.Name)
            }
            if targets & set(state):
                return {
                    name: mark for name, mark in state.items()
                    if name not in targets
                }
        return state

    def observe(
        self,
        state: _State,
        stmt: ast.stmt,
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        for call in _calls_in(stmt):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _REPLAYERS
                and _busish(call.func.value)
            ):
                continue
            used: Set[str] = set()
            for arg in call.args:
                used |= names_in(arg)
            for keyword in call.keywords:
                used |= names_in(keyword.value)
            for name in sorted(used):
                if state.get(name) == _STALE:
                    found.append(_RULE.violation(
                        module, stmt,
                        "replay cursor `%s` is stale — the log moved "
                        "(append/compact) after the snapshot; re-read "
                        "it with .cursor() before replaying" % name,
                    ))


class CursorLifecycleRule(TypestateRule):
    """Flags replay from a cursor snapshot the log moved past."""

    name = "cursor-lifecycle"
    description = (
        "a bus replay cursor snapshot must be re-read after the log "
        "moves (append/compact) — stale replay skips or double-"
        "counts changes"
    )
    prefixes = ("repro/",)

    def machine(
        self, module: ModuleInfo, scope: ast.AST
    ) -> Optional[TypestateMachine]:
        if ".cursor(" not in module.source:
            return None
        return _CursorMachine()


#: Violation factory shared with the machine.
_RULE = CursorLifecycleRule()
