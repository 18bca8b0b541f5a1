"""memo-confinement — wave-scoped shield decisions die with the wave.

The change bus consults the privacy shield once per (request, delta,
requester, relationship, purpose) tuple *per wave* through a
``ShieldMemo`` (PR 6).  The memo is sound only because it is
wave-scoped: permissions change between waves, so a decision cached
across waves is the cache privacy-shield bypass of PR 1 all over
again.  This rule makes that invariant path-sensitive: a memo (or a
decision read out of one) must not *outlive* the delivery it was
handed to.

Over the function CFG, the machine tracks two flavours of scoped
value:

* **roots** — the memo itself: parameters named ``memo`` or
  annotated ``ShieldMemo``, locals annotated ``ShieldMemo``, and
  aliases of either;
* **derived** — decisions read out of a root (``memo.get(key)``,
  ``memo[key]``, iteration over the memo).

Escapes, each a violation at the escaping statement:

* storing a scoped value on an attribute (``self._last = decision``)
  or into an attribute-rooted container (``self._cache[k] = d``) —
  instance state outlives the wave;
* returning or yielding a **root** — the whole wave cache handed to
  code with an arbitrary lifetime.

Everything else is allowed: writing a decision *into* the memo
(``memo[key] = decision``), passing memo or decision to calls (the
callee runs inside the wave — that is how the bus itself fans the
memo out to listeners), and returning a single derived decision to
an in-wave caller.  The path-sensitivity is the point: a name is
only scoped on paths where it still holds a memo-derived value — a
rebind from ``shield.enforce(...)`` kills the mark on that path, so
auditing a *fresh* decision is clean while auditing a *cached* one
is flagged.
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

__all__ = ["MemoConfinementRule"]

_ROOT = "root"
_DERIVED = "derived"

#: State: variable -> _ROOT | _DERIVED (absent = unscoped).
_State = Dict[str, str]

#: Methods whose result on a root is a scoped decision.
_READERS = frozenset({"get", "pop", "setdefault"})


def _annotation_is_memo(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "ShieldMemo":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ShieldMemo":
            return True
        if isinstance(node, ast.Constant) and (
            isinstance(node.value, str) and "ShieldMemo" in node.value
        ):
            return True
    return False


def _scoped_source(value: ast.expr, state: _State) -> Optional[str]:
    """Mark the RHS *value* confers on its target, if any."""
    if isinstance(value, ast.Name):
        return state.get(value.id)  # alias keeps the flavour
    if isinstance(value, ast.Subscript):
        base = value.value
        if isinstance(base, ast.Name) and state.get(base.id) == _ROOT:
            return _DERIVED  # memo[key]
        return None
    if isinstance(value, ast.Call):
        func = value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _READERS
            and isinstance(func.value, ast.Name)
            and state.get(func.value.id) == _ROOT
        ):
            return _DERIVED  # memo.get(key) and friends
    return None


class _MemoMachine(TypestateMachine):
    def __init__(self, scope: ast.AST) -> None:
        self._entry: _State = {}
        args = getattr(scope, "args", None)
        if args is not None:
            params = list(args.posonlyargs) + list(args.args) \
                + list(args.kwonlyargs)
            for param in params:
                if param.arg == "memo" \
                        or _annotation_is_memo(param.annotation):
                    self._entry[param.arg] = _ROOT

    def initial(self) -> _State:
        return dict(self._entry)

    def join(self, left: _State, right: _State) -> _State:
        # Scoped-on-any-path stays scoped; root outranks derived.
        merged = dict(left)
        for name, mark in right.items():
            if mark == _ROOT or merged.get(name) == _ROOT:
                merged[name] = _ROOT
            else:
                merged[name] = mark
        return merged

    def step(self, state: _State, stmt: ast.stmt) -> _State:
        if isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                new = dict(state)
                if _annotation_is_memo(stmt.annotation):
                    new[stmt.target.id] = _ROOT
                else:
                    new.pop(stmt.target.id, None)
                return new
            return state
        if isinstance(stmt, ast.Assign):
            mark = _scoped_source(stmt.value, state)
            new = dict(state)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if mark is None:
                        new.pop(target.id, None)  # strong kill
                    else:
                        new[target.id] = mark
            return new
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a root yields scoped decisions/keys.
            iter_names = names_in(stmt.iter)
            if any(state.get(n) == _ROOT for n in iter_names):
                new = dict(state)
                for name in names_in(stmt.target):
                    new[name] = _DERIVED
                return new
            return state
        if isinstance(stmt, ast.Delete):
            dropped = names_in(stmt)
            if dropped & set(state):
                return {
                    name: mark for name, mark in state.items()
                    if name not in dropped
                }
        return state

    def observe(
        self,
        state: _State,
        stmt: ast.stmt,
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        if not state:
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            value_marks = {
                state[name]
                for name in names_in(stmt.value)
                if name in state
            }
            if not value_marks:
                return
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if self._outliving_target(target, state):
                    what = (
                        "the wave memo" if _ROOT in value_marks
                        else "a memo-cached shield decision"
                    )
                    found.append(_RULE.violation(
                        module, stmt,
                        "%s escapes its wave into longer-lived "
                        "state — permissions may change between "
                        "waves, so cached decisions must die with "
                        "the delivery" % what,
                    ))
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._check_root_flow(stmt, stmt.value, state, module, found)
        elif isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            inner = stmt.value.value
            if inner is not None:
                self._check_root_flow(stmt, inner, state, module, found)

    def _outliving_target(
        self, target: ast.expr, state: _State
    ) -> bool:
        """Does assigning to *target* outlive the frame?  Attribute
        stores do; subscript stores do when the container hangs off
        an attribute — unless the container is the memo itself
        (``memo[key] = decision`` is the intended write-back)."""
        if isinstance(target, ast.Attribute):
            return True
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                return False  # local container (incl. the memo)
            return isinstance(base, (ast.Attribute, ast.Subscript))
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(
                self._outliving_target(element, state)
                for element in target.elts
            )
        return False

    def _root_names_yielded(
        self, value: ast.expr, state: _State
    ) -> Set[str]:
        """Root names the *value* of this expression may be (or
        contain).  ``memo`` is a root; ``memo.get(key)`` merely
        *mentions* one — the returned value is a single derived
        decision, which is allowed out."""
        if isinstance(value, ast.Name):
            if state.get(value.id) == _ROOT:
                return {value.id}
            return set()
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            out: Set[str] = set()
            for element in value.elts:
                out |= self._root_names_yielded(element, state)
            return out
        if isinstance(value, ast.Dict):
            out = set()
            for element in list(value.keys) + list(value.values):
                if element is not None:
                    out |= self._root_names_yielded(element, state)
            return out
        if isinstance(value, ast.Starred):
            return self._root_names_yielded(value.value, state)
        if isinstance(value, ast.IfExp):
            return (
                self._root_names_yielded(value.body, state)
                | self._root_names_yielded(value.orelse, state)
            )
        if isinstance(value, ast.BoolOp):
            out = set()
            for element in value.values:
                out |= self._root_names_yielded(element, state)
            return out
        if isinstance(value, ast.NamedExpr):
            return self._root_names_yielded(value.value, state)
        return set()

    def _check_root_flow(
        self,
        stmt: ast.stmt,
        value: ast.expr,
        state: _State,
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        roots = self._root_names_yielded(value, state)
        if roots:
            found.append(_RULE.violation(
                module, stmt,
                "the wave memo `%s` flows out of the wave "
                "(returned/yielded) — its decisions are only valid "
                "for this delivery" % sorted(roots)[0],
            ))


class MemoConfinementRule(TypestateRule):
    """Flags wave-scoped ShieldMemo state escaping its wave."""

    name = "memo-confinement"
    description = (
        "a wave-scoped ShieldMemo (and decisions read from it) must "
        "not escape into instance state or be returned — cached "
        "shield decisions die with the wave"
    )
    prefixes = ("repro/",)

    def machine(
        self, module: ModuleInfo, scope: ast.AST
    ) -> Optional[TypestateMachine]:
        if "memo" not in module.source:
            return None
        machine = _MemoMachine(scope)
        if not machine.initial() and "ShieldMemo" not in module.source:
            return None
        return machine


#: Violation factory shared with the machine.
_RULE = MemoConfinementRule()
