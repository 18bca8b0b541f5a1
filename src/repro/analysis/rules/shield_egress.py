"""shield-egress — profile data leaves the server layer only shielded.

The paper's privacy requirement (§5) is absolute: *every* read of
profile data on behalf of a requester passes the privacy shield. The
server/query/cache layer is where that can silently stop being true —
a new code path that fetches from an adapter or probes the cache and
returns the fragment without an ``enforce`` is invisible to runtime
tests until someone writes the exact missing test (PR 1's cache
bypass). This rule does a taint-style walk over
``core/server.py`` / ``core/cache.py`` / ``sansio/engine.py`` (where
every query pattern's protocol logic lives):

* **sources** — calls that yield profile data: ``*.export_user()``,
  ``get``/``get_stale`` on cache- or adapter-like receivers, the value
  a program receives at ``yield StoreGet(...)`` (the driver performs
  the adapter read and sends the fragment back in), and (by a
  per-class fixpoint) any same-class helper or sub-program — called,
  ``yield from``-ed or handed to ``Fork`` — whose own return value is
  tainted and unsanitized;
* **egress functions** — functions/methods that take a requester
  ``RequestContext`` (parameter named ``context`` or so annotated) —
  these claim to act *for a requester* — or a **batch** of them
  (``contexts`` / ``Sequence[RequestContext]``): the E19 batched
  fan-out is a new egress site and every item inside a batch must
  reach the shield exactly like a lone query would;
* **sanitizers** — privacy-shield touchpoints: ``pep.enforce``,
  ``_shield_cached``, ``resolve`` / ``resolve_for_update`` /
  ``_resolve_tracked`` (which enforce internally), and the shielded
  cache facades ``cache_lookup`` / ``cache_stale_lookup``.

An egress function that returns tainted data without calling a
sanitizer is flagged. Internal plumbing without a requester context
(``ComponentCache`` itself, the engine's ``fetch_part``) is exempt —
scoping its keys is the ``cache-key-scope`` rule's job, and the
deliberately unshielded ``direct()`` baseline takes no context by
design.

**Bus delivery callbacks are requester egress too** (E20): in
``repro/bus/`` modules, a delivery batch parameter (``records``,
``deltas``, ``batch``…) is profile data *by construction* — it is what
the change log replays — and ``*.since()`` on a log/bus receiver is a
source like a cache probe. A context-taking delivery function that
passes tainted data to a **delivery sink** (``deliver``,
``on_delivery``, ``_record_delivery``…) without the shield on the path
is flagged exactly like a tainted return: forwarding to a subscriber
IS returning profile data to a requester, just inverted.

**Federation exports are egress to another administrative domain**
(E22): in ``repro/federation/`` modules, an attribute payload
parameter (``value``/``values``…) is profile data by construction,
and a context-taking function that hands it to a **foreign write
sink** (``write`` / ``write_attr``) must pass the shield first —
an outbound sync write is a disclosure exactly like answering a
query, except the requester is a whole directory.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.framework import ModuleInfo, Rule, Violation

__all__ = ["ShieldEgressRule"]

#: Privacy-shield touchpoints: a call to any of these names counts as
#: the shield being consulted on the path.
_SANITIZERS = frozenset({
    "enforce", "_shield_cached", "resolve", "resolve_for_update",
    "_resolve_tracked", "cache_lookup", "cache_stale_lookup",
})
#: Methods yielding profile data on any receiver.
_SOURCE_ANY = frozenset({"export_user"})
#: Methods yielding profile data when the receiver looks like a cache,
#: an adapter, or a change log/bus (the E20 replay surface).
_SOURCE_ON_DATAISH = frozenset({"get", "get_stale", "since"})
_DATAISH_MARKERS = ("cache", "adapter", "log", "bus")
#: Sans-io intents whose yielded value is profile data: the driver
#: does the adapter read on the program's behalf.
_SOURCE_INTENTS = frozenset({"StoreGet"})
#: In bus modules, these parameter names carry replayed change records
#: — tainted at function entry (the log is where they came from).
_BUS_PAYLOAD_PARAMS = frozenset({
    "records", "record", "deltas", "delta", "batch",
})
#: Calls that hand data onward to a listener/subscriber — the egress
#: mirror of a ``return`` for the push path.
_DELIVERY_SINKS = frozenset({
    "deliver", "_deliver", "_deliver_records", "on_delivery",
    "_on_delivery", "record_delivery", "_record_delivery",
})
#: Rule-scope modules where the delivery-sink egress model applies.
_BUS_PREFIX = "repro/bus/"
#: In federation modules, these parameter names carry attribute values
#: bound for (or from) the foreign directory — tainted at entry.
_FED_PAYLOAD_PARAMS = frozenset({
    "value", "values", "record", "records", "resolution",
})
#: Calls that push data into the foreign directory — outbound egress.
_FED_SINKS = frozenset({"write", "write_attr"})
#: Rule-scope modules where the foreign-write egress model applies.
_FED_PREFIX = "repro/federation/"


def _receiver_parts(expr: ast.expr) -> List[str]:
    parts: List[str] = []
    node: Optional[ast.expr] = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


def _takes_request_context(fn: ast.FunctionDef) -> bool:
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg in ("context", "contexts"):
            return True
        if arg.annotation is not None \
                and _mentions_request_context(arg.annotation):
            return True
    return False


def _mentions_request_context(annotation: ast.expr) -> bool:
    """True when *annotation*'s subtree names RequestContext anywhere:
    bare ``RequestContext``, dotted ``access.RequestContext``, a string
    form, or a batch container like ``Sequence[RequestContext]`` /
    ``List[RequestContext]`` — the E19 batch fan-out is an egress site
    exactly like the per-query paths."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id == "RequestContext":
            return True
        if isinstance(node, ast.Attribute) \
                and node.attr == "RequestContext":
            return True
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and "RequestContext" in node.value:
            return True
    return False


class _FunctionFacts:
    __slots__ = ("tainted_returns", "tainted_sinks", "has_sanitizer")

    def __init__(self, tainted_returns: List[ast.Return],
                 tainted_sinks: List[ast.Call],
                 has_sanitizer: bool) -> None:
        self.tainted_returns = tainted_returns
        self.tainted_sinks = tainted_sinks
        self.has_sanitizer = has_sanitizer

    @property
    def returns_tainted(self) -> bool:
        return bool(self.tainted_returns)


class _TaintWalk:
    """Conservative intra-function taint propagation.

    A name is tainted once assigned from an expression whose subtree
    contains a source call or an already-tainted name; container
    mutations (``x.append(tainted)``) taint the container. The body is
    swept twice so taint introduced late in a loop body reaches uses
    earlier in it.
    """

    _MUTATORS = frozenset({"append", "extend", "add", "insert",
                           "update", "setdefault"})

    def __init__(
        self,
        tainted_peers: FrozenSet[str],
        pre_tainted: FrozenSet[str] = frozenset(),
        sinks: FrozenSet[str] = frozenset(),
    ) -> None:
        self._tainted_peers = tainted_peers
        self._pre_tainted = pre_tainted
        self._sinks = sinks
        self.tainted: Set[str] = set(pre_tainted)
        self.tainted_returns: List[ast.Return] = []
        self.tainted_sinks: List[ast.Call] = []

    # -- sources ------------------------------------------------------------

    def _is_source_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _SOURCE_ANY:
                return True
            if func.attr in _SOURCE_ON_DATAISH:
                parts = _receiver_parts(func.value)
                return any(
                    marker in part.lower()
                    for part in parts
                    for marker in _DATAISH_MARKERS
                )
            if func.attr in self._tainted_peers \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self":
                return True
            return False
        if isinstance(func, ast.Name):
            return func.id in self._tainted_peers \
                or func.id in _SOURCE_INTENTS
        return False

    def _is_tainted(self, expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self.tainted:
                return True
            if isinstance(node, ast.Call) and self._is_source_call(node):
                return True
        return False

    # -- propagation --------------------------------------------------------

    def _taint_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._taint_target(element)
        elif isinstance(target, ast.Starred):
            self._taint_target(target.value)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            root = target.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id != "self":
                self.tainted.add(root.id)

    def run(self, fn: ast.FunctionDef) -> None:
        for _sweep in range(2):
            self.tainted_returns = []
            self.tainted_sinks = []
            for stmt in fn.body:
                self._visit(stmt)

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            if self._is_tainted(stmt.value):
                for target in stmt.targets:
                    self._taint_target(target)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and self._is_tainted(stmt.value):
                self._taint_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            if self._is_tainted(stmt.value):
                self._taint_target(stmt.target)
        elif isinstance(stmt, ast.Return):
            if self._is_tainted(stmt.value):
                self.tainted_returns.append(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self._is_tainted(stmt.iter):
                self._taint_target(stmt.target)
            for child in stmt.body + stmt.orelse:
                self._visit(child)
        elif isinstance(stmt, (ast.If, ast.While)):
            for child in stmt.body + stmt.orelse:
                self._visit(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None \
                        and self._is_tainted(item.context_expr):
                    self._taint_target(item.optional_vars)
            for child in stmt.body:
                self._visit(child)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body + stmt.orelse + stmt.finalbody:
                self._visit(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self._visit(child)
        elif isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            arguments = list(call.args) + [
                keyword.value for keyword in call.keywords
            ]
            if isinstance(func, ast.Attribute) \
                    and func.attr in self._MUTATORS:
                if any(self._is_tainted(argument)
                       for argument in arguments):
                    self._taint_target(func.value)
            if self._sinks:
                sink_name = None
                if isinstance(func, ast.Attribute):
                    sink_name = func.attr
                elif isinstance(func, ast.Name):
                    sink_name = func.id
                if sink_name in self._sinks and any(
                    self._is_tainted(argument)
                    for argument in arguments
                ):
                    self.tainted_sinks.append(call)
        # Nested defs/classes are opaque to the walk (conservatively
        # ignored; closures over tainted state are rare in this layer).


def _has_sanitizer(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        if name in _SANITIZERS:
            return True
    return False


#: Per-mode (payload params, sink names) for the push-egress models.
_MODES: Dict[str, "tuple[FrozenSet[str], FrozenSet[str]]"] = {
    "bus": (_BUS_PAYLOAD_PARAMS, _DELIVERY_SINKS),
    "fed": (_FED_PAYLOAD_PARAMS, _FED_SINKS),
}


def _function_facts(fn: ast.FunctionDef,
                    tainted_peers: FrozenSet[str],
                    mode: Optional[str] = None) -> _FunctionFacts:
    pre_tainted: FrozenSet[str] = frozenset()
    sinks: FrozenSet[str] = frozenset()
    if mode is not None:
        payload_params, sinks = _MODES[mode]
        args = fn.args
        pre_tainted = frozenset(
            arg.arg
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            if arg.arg in payload_params
        )
    walk = _TaintWalk(
        tainted_peers, pre_tainted=pre_tainted, sinks=sinks
    )
    walk.run(fn)
    return _FunctionFacts(
        walk.tainted_returns, walk.tainted_sinks, _has_sanitizer(fn)
    )


class ShieldEgressRule(Rule):
    """Taint-walks server/engine/cache egress to the privacy shield."""

    name = "shield-egress"
    description = (
        "context-mediated egress in server/engine/cache reaches a "
        "privacy-shield check before returning profile data"
    )
    prefixes = (
        "repro/core/server.py",
        "repro/core/cache.py",
        "repro/sansio/engine.py",
        "repro/bus/",
        "repro/federation/",
    )

    def check(self, module: ModuleInfo) -> List[Violation]:
        found: List[Violation] = []
        mode: Optional[str] = None
        if module.relpath.startswith(_BUS_PREFIX):
            mode = "bus"
        elif module.relpath.startswith(_FED_PREFIX):
            mode = "fed"
        module_functions = [
            node for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        ]
        self._check_group(module, module_functions, found, mode)
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
                self._check_group(module, methods, found, mode)
        return found

    def _check_group(self, module: ModuleInfo,
                     functions: List[ast.FunctionDef],
                     found: List[Violation],
                     mode: Optional[str]) -> None:
        if not functions:
            return
        facts = self._fixpoint(functions, mode)
        for fn in functions:
            fn_facts = facts[fn.name]
            if not _takes_request_context(fn):
                continue
            if fn_facts.has_sanitizer:
                continue
            for tainted_return in fn_facts.tainted_returns:
                found.append(self.violation(
                    module, tainted_return,
                    "%s() returns profile data to a requester "
                    "context without a privacy-shield check "
                    "(no enforce/_shield_cached/resolve on the "
                    "path)" % fn.name,
                ))
            for tainted_sink in fn_facts.tainted_sinks:
                found.append(self.violation(
                    module, tainted_sink,
                    "%s() forwards profile data to a delivery "
                    "or foreign-write sink for a requester context "
                    "without a privacy-shield check (pushes are "
                    "egress; enforce per item)" % fn.name,
                ))

    @staticmethod
    def _fixpoint(
        functions: List[ast.FunctionDef],
        mode: Optional[str],
    ) -> Dict[str, _FunctionFacts]:
        """Iterate until the set of tainted-returning, unsanitized
        helpers stabilizes, so taint flows through same-class (or
        same-module) plumbing like the engine's ``fetch_part``."""
        tainted_peers: FrozenSet[str] = frozenset()
        facts: Dict[str, _FunctionFacts] = {}
        for _round in range(len(functions) + 1):
            facts = {
                fn.name: _function_facts(fn, tainted_peers, mode)
                for fn in functions
            }
            new_peers = frozenset(
                name for name, fn_facts in facts.items()
                if fn_facts.returns_tainted
                and not fn_facts.has_sanitizer
            )
            if new_peers == tainted_peers:
                break
            tainted_peers = new_peers
        return facts
