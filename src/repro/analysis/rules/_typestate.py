"""Shared driver for the CFG-based typestate rules.

Each typestate rule models a tiny abstract machine over function-local
variables: a *state* (mapping or set, compared with ``==``), a
``step`` folding one statement into the state, and observation hooks
that turn bad transitions into violations.  This module owns the
plumbing every such rule repeats:

* enumerate the scopes of a module (the module body plus every
  ``def``, each analyzed with nested defs as opaque statements);
* build the scope's CFG and run the machine to fixpoint with the
  generic solver;
* replay the solved block-entry states statement-by-statement so the
  machine can report violations against *stable* states (reporting
  during fixpoint iteration would fire on transient garbage).

Blocks the fixpoint never reached hold dead code — skipped, because a
leak on an unreachable path is not a leak.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, List, Optional, Set

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import solve
from repro.analysis.framework import ModuleInfo, Rule, Violation

__all__ = ["TypestateMachine", "TypestateRule", "names_in", "scopes_of"]


def names_in(node: ast.AST) -> Set[str]:
    """Every bare name read or bound anywhere under *node*."""
    return {
        child.id for child in ast.walk(node)
        if isinstance(child, ast.Name)
    }


def scopes_of(tree: ast.Module) -> Iterator[ast.AST]:
    """The module body and every function definition, outermost
    first.  Each scope's CFG treats nested ``def``/``class`` bodies
    as opaque single statements."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class TypestateMachine:
    """One scope's abstract machine.  Subclasses define the lattice."""

    def initial(self) -> Any:
        """State at scope entry."""
        raise NotImplementedError

    def join(self, left: Any, right: Any) -> Any:
        """Combine states at a control-flow merge."""
        raise NotImplementedError

    def step(self, state: Any, stmt: ast.stmt) -> Any:
        """Fold *stmt* into *state*, returning a fresh state."""
        raise NotImplementedError

    def observe(
        self,
        state: Any,
        stmt: ast.stmt,
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        """Report violations visible at *stmt* given the state that
        holds just before it (called on the solved states only)."""

    def at_exit(
        self,
        state: Optional[Any],
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        """Report violations visible at scope exit (``state`` is
        ``None`` when no path reaches the exit, e.g. ``while True``)."""


class TypestateRule(Rule):
    """Base class running a :class:`TypestateMachine` per scope."""

    def machine(
        self, module: ModuleInfo, scope: ast.AST
    ) -> Optional[TypestateMachine]:
        """The machine for *scope*, or ``None`` to skip it (cheap
        relevance pre-check — most scopes touch no tracked object)."""
        raise NotImplementedError

    def check(self, module: ModuleInfo) -> List[Violation]:
        found: List[Violation] = []
        for scope in scopes_of(module.tree):
            machine = self.machine(module, scope)
            if machine is None:
                continue
            self._run_scope(machine, scope, module, found)
        return found

    def _run_scope(
        self,
        machine: TypestateMachine,
        scope: ast.AST,
        module: ModuleInfo,
        found: List[Violation],
    ) -> None:
        cfg = build_cfg(scope)

        def transfer(index: int, state: Any) -> Any:
            for stmt in cfg.blocks[index].stmts:
                state = machine.step(state, stmt)
            return state

        solution = solve(
            cfg, machine.initial(), transfer, machine.join
        )
        for index in cfg.rpo():
            state = solution.before.get(index)
            if state is None:
                continue  # dead code — no runtime path gets here
            for stmt in cfg.blocks[index].stmts:
                machine.observe(state, stmt, module, found)
                state = machine.step(state, stmt)
        machine.at_exit(
            solution.before.get(cfg.exit), module, found
        )
