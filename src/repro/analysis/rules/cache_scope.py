"""cache-key-scope — cache traffic always carries the requester scope.

The component cache sits *behind* the privacy shield; its keys are
(path, requester-scope) pairs precisely so a fragment cached for
requester A can never satisfy requester B (core/cache.py docstring,
PR 1 regression). A single ``cache.put(path, fragment, now)`` call
without a ``scope=`` quietly recreates the shield bypass: the entry
lands in the anonymous scope and leaks to whoever asks next. This rule
makes that bug structurally impossible to reintroduce in ``core/``,
``services/``, ``tests/`` and ``benchmarks/``: every
``get``/``get_stale``/``put`` on a cache-like receiver must pass an
explicit, non-empty ``scope``.

``invalidate``/``clear`` are deliberately exempt — update triggers must
drop *every* scope's slice of a changed component.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.framework import ModuleInfo, Rule, Violation

__all__ = ["CacheKeyScopeRule"]

#: Method name -> 0-based positional index where ``scope`` lives, so a
#: positional pass-through also satisfies the rule.
_SCOPED_METHODS = {"get": 2, "get_stale": 2, "put": 4}


def _receiver_parts(expr: ast.expr) -> List[str]:
    """Identifier parts of a dotted receiver (``self.cache`` ->
    ``["self", "cache"]``)."""
    parts: List[str] = []
    node: Optional[ast.expr] = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


class CacheKeyScopeRule(Rule):
    """Requires requester scope on every cache get/get_stale/put."""

    name = "cache-key-scope"
    description = (
        "cache get/get_stale/put calls in core/ and services/ pass an "
        "explicit non-empty requester scope"
    )
    prefixes = (
        "repro/core/", "repro/services/", "tests/", "benchmarks/",
    )

    def check(self, module: ModuleInfo) -> List[Violation]:
        found: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _SCOPED_METHODS:
                continue
            parts = _receiver_parts(func.value)
            if not any("cache" in part.lower() for part in parts):
                continue
            self._check_scope(module, node, func.attr, found)
        return found

    def _check_scope(self, module: ModuleInfo, node: ast.Call,
                     method: str, found: List[Violation]) -> None:
        scope_value: Optional[ast.expr] = None
        for keyword in node.keywords:
            if keyword.arg == "scope":
                scope_value = keyword.value
                break
            if keyword.arg is None:
                return  # **kwargs splat: cannot prove either way
        if scope_value is None:
            position = _SCOPED_METHODS[method]
            if len(node.args) > position:
                scope_value = node.args[position]
        if scope_value is None:
            found.append(self.violation(
                module, node,
                "cache %s() without scope= — unscoped entries leak "
                "across requesters (the PR 1 shield bypass)" % method,
            ))
            return
        if (isinstance(scope_value, ast.Constant)
                and scope_value.value == ""):
            found.append(self.violation(
                module, node,
                "cache %s() with empty scope — pass the requester's "
                "context.cache_scope()" % method,
            ))
