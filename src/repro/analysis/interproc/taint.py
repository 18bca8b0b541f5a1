"""Interprocedural taint fixpoint over the call graph.

The engine evaluates every project function against its callees'
:class:`~repro.analysis.interproc.summaries.Summary` objects,
processing call-graph SCCs callees-first and iterating inside cyclic
SCCs until the (monotone) summaries stabilize.

**Sources** (axiomatic — their bodies read native stores the project
cannot see into): ``GupAdapter.get/export_user`` and every subclass
override, ``ComponentCache.get/get_stale``,
``SyncEndpoint.item/snapshot/changes_since``, and the value a sans-io
program receives at ``yield StoreGet(...)`` (the driver performs the
adapter read and sends the fragment back in).  Unresolvable receivers
fall back to receiver-marker heuristics (``...cache.get(...)``,
``...log.since(...)``) so a dynamically-typed call site never
silently drops a source; a bare module-level name is not a receiver
(``_PARSE_CACHE.get`` is a memo dict, not a component cache).

**Per-package egress models** (:data:`EGRESS_MODELS`): inside
``repro/bus/`` and ``repro/federation/`` handing records onward *is*
the plumbing, so egress there is defined by a table row — payload
parameters that are profile data at entry (what the change log
replays, what a sync round exports) and the calls that hand them to a
subscriber or a foreign directory — and applies only to functions
serving a requester context.  Everywhere else :data:`SEND_SINKS`
applies, context or not.

**Sanitizer**: the privacy shield, and only the privacy shield.
GUPster applies it in two shapes, both honoured:

* *value* shape — ``shielded = pep.enforce(...)``: the call's result
  is clean (``enforce`` / ``_shield_cached`` by name, or a callee
  whose summary says ``sanitizes``);
* *guard* shape — ``self._shield_cached(parsed, context)`` as a
  statement that raises ``AccessDeniedError`` on deny, after which
  the data is released: once a guard has executed, the current frame
  is **shield-mediated** — existing ``src`` labels are purged and no
  new ones are generated (the shield approved this requester, and the
  referral it pruned governs the subsequent fetches).  The guard
  effect is transitive through a callee whose summary has ``guards``
  set.  No other name is a shield: ``GupsterServer.resolve``, the
  ``cache_lookup`` facades and the engine's ``_resolve_tracked`` earn
  ``guards`` through their bodies, while ``CoverageMap.resolve`` and
  sync's ``Reconciler.resolve`` never will.

**Precision/soundness split**: confidently-resolved calls compose
callee summaries (``returns_source`` + per-parameter flows, sanitizer
kill honoured); constructors carry their arguments' taint into the
object (``QueryOutcome(fragment)``); unresolved or name-fallback
calls take the blanket union of receiver and argument taint so
unknown code never launders data.  A ``yield`` evaluates to what it
yielded (``yield Fork([...])`` hands back the legs' results).  Guard
placement is statement-ordered but branch-insensitive — a guard
inside one branch still marks the frame (documented caveat, DESIGN
§4.3); returns *before* the first guard keep their taint.
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

from repro.analysis.ir.callgraph import (
    CallGraph, CallResolver, Resolution,
)
from repro.analysis.ir.project import Project
from repro.analysis.ir.symbols import FunctionInfo, dotted_ref
from repro.analysis.interproc.effects import (
    EFFECT_PURE,
    axiom_effect,
    intrinsic_call_effect,
    intrinsic_read_effect,
    join_effects,
)
from repro.analysis.interproc.growth import (
    GROW_METHODS,
    SHRINK_METHODS,
    container_intrinsic,
)
from repro.analysis.interproc.summaries import SOURCE_LABEL, Summary

__all__ = [
    "DIRECT_SANITIZERS",
    "EGRESS_MODELS",
    "INTENT_SOURCES",
    "SEND_SINKS",
    "SIM_RUN_METHODS",
    "SIM_SCHEDULERS",
    "SOURCE_METHODS",
    "TaintEngine",
    "takes_request_context",
]

#: Call-site names that sanitize/guard regardless of resolution — the
#: privacy shield's entry points.
DIRECT_SANITIZERS = frozenset({"enforce", "_shield_cached"})

#: Source axioms: base-class name -> method names that return raw
#: profile data.  Applies to the class and every project descendant.
SOURCE_METHODS: Dict[str, FrozenSet[str]] = {
    "GupAdapter": frozenset({"get", "export_user"}),
    "ComponentCache": frozenset({"get", "get_stale"}),
    "SyncEndpoint": frozenset(
        {"item", "snapshot", "changes_since"}
    ),
}

#: Sans-io intents whose yielded value is profile data: the driver
#: does the adapter read on the program's behalf.
INTENT_SOURCES = frozenset({"StoreGet"})

#: Network-style send sinks: handing raw profile data to one of these
#: is an egress even without a ``return``.
SEND_SINKS = frozenset(
    {"send", "deliver", "publish", "broadcast", "transmit"}
)

#: Per-package egress models, relpath prefix -> (payload parameter
#: names tainted at entry, sink call names).  A row replaces
#: :data:`SEND_SINKS` under its prefix and binds only functions that
#: take a requester context — contextless bus/federation code
#: (``CacheInvalidationListener.deliver``, the import path) is
#: plumbing.
EGRESS_MODELS: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {
    # Bus delivery: the batch is what the change log replays;
    # forwarding it to a subscriber is a return, inverted.
    "repro/bus/": (
        frozenset({"records", "record", "deltas", "delta", "batch"}),
        frozenset({
            "deliver", "_deliver", "_deliver_records", "on_delivery",
            "_on_delivery", "record_delivery", "_record_delivery",
        }),
    ),
    # Federation export: an outbound sync write discloses to another
    # administrative domain.
    "repro/federation/": (
        frozenset({"value", "values", "record", "records",
                   "resolution"}),
        frozenset({"write", "write_attr"}),
    ),
}

#: Methods that (re-)enter the discrete-event loop when invoked on a
#: simulator receiver.
SIM_RUN_METHODS = frozenset({"run", "step", "advance"})

#: Methods that hand a callback to the simulator's event queue.
SIM_SCHEDULERS = frozenset({"schedule", "schedule_at", "every"})

#: In-place container mutations that bind argument taint into the
#: receiver variable (``fragments.append(raw)`` taints ``fragments``).
_BINDING_MUTATORS = frozenset({
    "append", "add", "extend", "insert", "update", "setdefault",
})

#: Receiver-marker fallback (unresolved receivers only):
#: substring-of-receiver-text -> method names treated as sources
#: (the empty marker matches any receiver).
_MARKER_SOURCES: Tuple[Tuple[str, FrozenSet[str]], ...] = (
    ("", frozenset({"export_user"})),
    ("cache", frozenset({"get", "get_stale"})),
    ("adapter", frozenset({"get", "export_user"})),
    ("endpoint",
     frozenset({"item", "snapshot", "changes_since"})),
    ("store", frozenset({"get", "fetch", "export", "snapshot"})),
    ("log", frozenset({"since"})),
    ("bus", frozenset({"since"})),
)


def takes_request_context(fn: FunctionInfo) -> bool:
    """A parameter named ``context`` / ``contexts`` (the E19 batch)
    or whose annotation mentions RequestContext anywhere
    (``Sequence[RequestContext]``, string forms) marks the function
    as serving an external requester — its return value is an egress
    surface."""
    args = fn.node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg in ("context", "contexts"):
            return True
        if arg.annotation is not None \
                and "RequestContext" in ast.dump(arg.annotation):
            return True
    return False


def _egress_model(
    fn: FunctionInfo,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(payload params, sink names)`` in force inside *fn*."""
    for prefix, model in EGRESS_MODELS.items():
        if fn.relpath.startswith(prefix):
            if takes_request_context(fn):
                return model
            return frozenset(), frozenset()
    return frozenset(), SEND_SINKS


class _Frame:
    """Mutable per-function analysis state."""

    __slots__ = ("env", "returns", "sends", "state", "sinks")

    def __init__(
        self,
        env: Dict[str, Set[str]],
        returns: List[Tuple[int, Set[str]]],
        sends: List[Tuple[int, int, str]],
        state: Dict[str, bool],
        sinks: FrozenSet[str],
    ) -> None:
        self.env = env
        self.returns = returns
        self.sends = sends
        #: Call names that are egress inside this function.
        self.sinks = sinks
        #: ``guarded``: a shield guard has executed on some path.
        self.state = state

    def child(self) -> "_Frame":
        """Comprehension scope: own bindings, shared effects."""
        return _Frame(
            dict(self.env), self.returns, self.sends, self.state,
            self.sinks,
        )

    @property
    def guarded(self) -> bool:
        return self.state.get("guarded", False)

    def mark_guarded(self) -> None:
        self.state["guarded"] = True
        for labels in self.env.values():
            labels.discard(SOURCE_LABEL)


class _Plan(NamedTuple):
    """The per-function syntactic facts the fixpoint composes."""

    effect: str
    effect_callees: Tuple[str, ...]
    #: ``"grow"`` / ``"shrink"`` -> parameter indices the body itself
    #: mutates in place.
    mutated: Dict[str, Set[int]]
    #: ``(callee qualname, callee parameter index, own parameter
    #: index)`` for each parameter passed on to a project callee.
    param_edges: Tuple[Tuple[str, int, int], ...]


def _call_mutations(
    call: ast.Call,
    resolution: Resolution,
    aliases: Dict[str, int],
    mark: Callable[[Optional[str], ast.expr], None],
) -> List[Tuple[str, int, int]]:
    """Record what *call* does to the caller's parameters in place
    through *mark*; return the ``(callee, position, parameter)``
    edges for parameters it passes on to project code."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id in aliases:
        mark(
            "grow" if func.attr in GROW_METHODS
            else "shrink" if func.attr in SHRINK_METHODS else None,
            func.value,
        )
        return []
    intrinsic = container_intrinsic(func)
    if intrinsic is not None:
        op, position = intrinsic
        if len(call.args) > position:
            mark(op, call.args[position])
        return []
    offset = 1 if (
        isinstance(func, ast.Attribute) and not resolution.is_constructor
    ) else 0
    return [
        (callee.qualname, position + offset, aliases[arg.id])
        for position, arg in enumerate(call.args)
        if isinstance(arg, ast.Name) and arg.id in aliases
        for callee in resolution.targets
    ]


class TaintEngine:
    """Summary computation + fixpoint over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.resolver = CallResolver(project)
        self._callgraph: Optional[CallGraph] = None
        self._summaries: Dict[str, Summary] = {}
        self._solved = False
        self._ancestor_cache: Dict[str, FrozenSet[str]] = {}
        #: qualname -> :meth:`_plan` — the resolution work is identical
        #: on every fixpoint pass, so it is done once per function.
        self._plans: Dict[str, _Plan] = {}

    # -- public API (contract with the framework) -----------------------

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph(
                self.project, self.resolver
            )
        return self._callgraph

    def summary_of(self, qualname: str) -> Optional[Summary]:
        self.compute()
        return self._summaries.get(qualname)

    def compute(self) -> None:
        """Fixpoint over the whole call graph, callees first — solved
        once, on the first :meth:`summary_of` at the latest."""
        if self._solved:
            return
        self._solved = True
        for scc in self.callgraph.sccs:
            self._solve_scc(scc)

    # -- fixpoint -------------------------------------------------------

    def _solve_scc(self, scc: Tuple[str, ...]) -> None:
        members = [
            self.project.functions[q]
            for q in scc if q in self.project.functions
        ]
        # Optimistic start inside the SCC: absent summaries read as
        # clean and grow monotonically until stable.
        for _ in range(32):
            changed = False
            for fn in members:
                summary = self._summarize(fn)
                if self._summaries.get(fn.qualname) != summary:
                    self._summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break

    # -- per-function analysis ------------------------------------------

    def _summarize(self, fn: FunctionInfo) -> Summary:
        plan = self._plan(fn)
        payload, sinks = _egress_model(fn)
        env: Dict[str, Set[str]] = {
            name: {"p%d" % index}
            for index, name in enumerate(fn.params)
        }
        frame = _Frame(env, [], [], {}, sinks)
        # Two sweeps: loop-carried and use-before-def local taint
        # stabilizes on the second pass.
        for _ in range(2):
            del frame.returns[:]
            del frame.sends[:]
            frame.state["guarded"] = False
            # Payload parameters are profile data at entry — on every
            # sweep: the first one's guard purged the label.
            for name in payload.intersection(fn.params):
                env[name].add(SOURCE_LABEL)
            self._walk_block(fn.node.body, frame, fn)
        labels: Set[str] = set()
        tainted_lines: List[int] = []
        for line, taint in frame.returns:
            labels |= taint
            if SOURCE_LABEL in taint:
                tainted_lines.append(line)
        param_flows = frozenset(
            int(label[1:]) for label in labels
            if label.startswith("p") and label[1:].isdigit()
        )
        return Summary(
            qualname=fn.qualname,
            relpath=fn.relpath,
            returns_source=SOURCE_LABEL in labels,
            param_flows=param_flows,
            sanitizes=fn.name in DIRECT_SANITIZERS,
            guards=(
                frame.guarded or fn.name in DIRECT_SANITIZERS
            ),
            tainted_return_lines=tuple(sorted(set(tainted_lines))),
            egress_sends=tuple(frame.sends),
            reaches_sim_run=self._reaches_sim_run(fn),
            effect=self._effect_of(fn, plan),
            grown_params=self._mutated_params(plan, "grow"),
            shrunk_params=self._mutated_params(plan, "shrink"),
        )

    # -- statements -----------------------------------------------------

    def _walk_block(
        self,
        body: Sequence[ast.stmt],
        frame: _Frame,
        fn: FunctionInfo,
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, frame, fn)

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        frame: _Frame,
        fn: FunctionInfo,
    ) -> None:
        if isinstance(stmt, ast.Return):
            taint = (
                self._eval(stmt.value, frame, fn)
                if stmt.value is not None else set()
            )
            frame.returns.append((stmt.lineno, taint))
        elif isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value, frame, fn)
            for target in stmt.targets:
                self._bind(target, taint, frame)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self._eval(stmt.value, frame, fn)
                self._bind(stmt.target, taint, frame)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value, frame, fn)
            if isinstance(stmt.target, ast.Name):
                frame.env.setdefault(
                    stmt.target.id, set()
                ).update(taint)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, frame, fn)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, frame, fn)
            self._walk_block(stmt.body, frame, fn)
            self._walk_block(stmt.orelse, frame, fn)
        elif isinstance(stmt, ast.For):
            taint = self._eval(stmt.iter, frame, fn)
            self._bind(stmt.target, taint, frame)
            self._walk_block(stmt.body, frame, fn)
            self._walk_block(stmt.orelse, frame, fn)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                taint = self._eval(item.context_expr, frame, fn)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, frame)
            self._walk_block(stmt.body, frame, fn)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, frame, fn)
            for handler in stmt.handlers:
                self._walk_block(handler.body, frame, fn)
            self._walk_block(stmt.orelse, frame, fn)
            self._walk_block(stmt.finalbody, frame, fn)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child, frame, fn)
        # Nested defs/classes: their *returns* are not this
        # function's returns; call effects are covered by
        # ``_reaches_sim_run`` (which walks everything) and by the
        # call graph's nested-call attribution.

    def _bind(self, target: ast.expr, taint: Set[str],
              frame: _Frame) -> None:
        if isinstance(target, ast.Name):
            frame.env.setdefault(target.id, set()).update(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint, frame)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, frame)
        elif isinstance(target, ast.Subscript):
            # ``x[k] = tainted`` taints the container variable.
            self._bind(target.value, taint, frame)
        # Attribute stores: object-field taint is out of scope (the
        # source axioms cover stateful readers).

    # -- expressions ----------------------------------------------------

    def _eval(
        self,
        expr: Optional[ast.expr],
        frame: _Frame,
        fn: FunctionInfo,
    ) -> Set[str]:
        if expr is None:
            return set()
        if isinstance(expr, ast.Name):
            return set(frame.env.get(expr.id, ()))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, frame, fn)
        if isinstance(expr, ast.Attribute):
            return self._eval(expr.value, frame, fn)
        if isinstance(expr, ast.Subscript):
            return (
                self._eval(expr.value, frame, fn)
                | self._eval(expr.slice, frame, fn)
            )
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, frame, fn)
            return (
                self._eval(expr.body, frame, fn)
                | self._eval(expr.orelse, frame, fn)
            )
        if isinstance(expr, ast.BoolOp):
            taint: Set[str] = set()
            for value in expr.values:
                taint |= self._eval(value, frame, fn)
            return taint
        if isinstance(expr, ast.BinOp):
            return (
                self._eval(expr.left, frame, fn)
                | self._eval(expr.right, frame, fn)
            )
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, frame, fn)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            taint = set()
            for element in expr.elts:
                taint |= self._eval(element, frame, fn)
            return taint
        if isinstance(expr, ast.Dict):
            taint = set()
            for key in expr.keys:
                if key is not None:
                    taint |= self._eval(key, frame, fn)
            for value in expr.values:
                taint |= self._eval(value, frame, fn)
            return taint
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, frame, fn)
        if isinstance(expr, ast.JoinedStr):
            taint = set()
            for value in expr.values:
                taint |= self._eval(value, frame, fn)
            return taint
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value, frame, fn)
        if isinstance(
            expr,
            (ast.ListComp, ast.SetComp, ast.GeneratorExp),
        ):
            local = frame.child()
            for comp in expr.generators:
                iter_taint = self._eval(comp.iter, local, fn)
                self._bind(comp.target, iter_taint, local)
                for cond in comp.ifs:
                    self._eval(cond, local, fn)
            return self._eval(expr.elt, local, fn)
        if isinstance(expr, ast.DictComp):
            local = frame.child()
            for comp in expr.generators:
                iter_taint = self._eval(comp.iter, local, fn)
                self._bind(comp.target, iter_taint, local)
                for cond in comp.ifs:
                    self._eval(cond, local, fn)
            return (
                self._eval(expr.key, local, fn)
                | self._eval(expr.value, local, fn)
            )
        if isinstance(expr, ast.Compare):
            # Comparisons yield booleans — never profile data.
            self._eval(expr.left, frame, fn)
            for comparator in expr.comparators:
                self._eval(comparator, frame, fn)
            return set()
        if isinstance(expr, ast.NamedExpr):
            taint = self._eval(expr.value, frame, fn)
            self._bind(expr.target, taint, frame)
            return taint
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            taint = self._eval(expr.value, frame, fn)
            intent = expr.value
            if (
                isinstance(intent, ast.Call)
                and isinstance(intent.func, ast.Name)
                and intent.func.id in INTENT_SOURCES
                and not frame.guarded
            ):
                taint.add(SOURCE_LABEL)
            return taint
        return set()

    def _eval_call(
        self,
        call: ast.Call,
        frame: _Frame,
        fn: FunctionInfo,
    ) -> Set[str]:
        func = call.func
        name: Optional[str] = None
        receiver_taint: Set[str] = set()
        if isinstance(func, ast.Attribute):
            name = func.attr
            receiver_taint = self._eval(func.value, frame, fn)
        elif isinstance(func, ast.Name):
            name = func.id
        arg_taints = [
            self._eval(arg, frame, fn) for arg in call.args
        ]
        kw_taints: Dict[Optional[str], Set[str]] = {
            kw.arg: self._eval(kw.value, frame, fn)
            for kw in call.keywords
        }
        # Egress sinks: raw profile data handed onward.
        if name in frame.sinks:
            handed: Set[str] = set()
            for taint in arg_taints:
                handed |= taint
            for taint in kw_taints.values():
                handed |= taint
            if SOURCE_LABEL in handed:
                frame.sends.append(
                    (call.lineno, call.col_offset, name)
                )
        # In-place container mutation binds taint into the receiver.
        if (
            name in _BINDING_MUTATORS
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            merged: Set[str] = set()
            for taint in arg_taints:
                merged |= taint
            for taint in kw_taints.values():
                merged |= taint
            frame.env.setdefault(
                func.value.id, set()
            ).update(merged)
        # The shield: value kill + frame guard.
        if name in DIRECT_SANITIZERS:
            frame.mark_guarded()
            return set()
        resolution = self.resolver.resolve(call, fn)
        if resolution.targets and resolution.confident:
            result: Set[str] = set()
            for target in resolution.targets:
                result |= self._apply_summary(
                    target, call, resolution.is_constructor,
                    receiver_taint, arg_taints, kw_taints, frame,
                )
            if resolution.is_constructor:
                # The object carries whatever it was built from.
                result = result.union(*arg_taints, *kw_taints.values())
            if frame.guarded:
                result.discard(SOURCE_LABEL)
            return result
        # Fallback family dispatch or fully unresolved: blanket
        # union (unknown code may return anything it was given) plus
        # source axioms / receiver markers.
        blanket: Set[str] = set(receiver_taint)
        for taint in arg_taints:
            blanket |= taint
        for taint in kw_taints.values():
            blanket |= taint
        if resolution.targets:
            for target in resolution.targets:
                if self._is_source(target):
                    blanket.add(SOURCE_LABEL)
                summary = self._summaries.get(target.qualname)
                if summary is not None and summary.returns_source:
                    blanket.add(SOURCE_LABEL)
        elif (
            isinstance(func, ast.Attribute)
            and name is not None
            and self._marker_source(func, name, fn)
        ):
            blanket.add(SOURCE_LABEL)
        if frame.guarded:
            blanket.discard(SOURCE_LABEL)
        return blanket

    def _apply_summary(
        self,
        target: FunctionInfo,
        call: ast.Call,
        is_constructor: bool,
        receiver_taint: Set[str],
        arg_taints: List[Set[str]],
        kw_taints: Dict[Optional[str], Set[str]],
        frame: _Frame,
    ) -> Set[str]:
        summary = self._summaries.get(target.qualname)
        if summary is not None and (
            summary.sanitizes or summary.guards
        ):
            # The callee runs the shield before releasing data (or
            # raising): the frame is shield-mediated from here on.
            frame.mark_guarded()
        if self._is_source(target):
            return {SOURCE_LABEL}
        if summary is None:
            # In-SCC callee not yet summarized: optimistic bottom;
            # the enclosing fixpoint re-runs until stable.
            return set()
        if summary.sanitizes:
            return set()
        result: Set[str] = set()
        if summary.returns_source:
            result.add(SOURCE_LABEL)
        bound = target.is_method and isinstance(
            call.func, ast.Attribute
        ) and not is_constructor
        offset = 1 if (bound or is_constructor) else 0
        for index in summary.param_flows:
            if bound and index == 0:
                result |= receiver_taint
                continue
            position = index - offset
            if 0 <= position < len(arg_taints):
                result |= arg_taints[position]
                continue
            if index < len(target.params):
                keyword = target.params[index]
                if keyword in kw_taints:
                    result |= kw_taints[keyword]
        return result

    # -- sources / sinks -------------------------------------------------

    def _ancestors(self, owner: str) -> FrozenSet[str]:
        cached = self._ancestor_cache.get(owner)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        frontier = [owner]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.project.bases_of(current))
        result = frozenset(seen)
        self._ancestor_cache[owner] = result
        return result

    def _is_source(self, fn: FunctionInfo) -> bool:
        if fn.class_name is None:
            return False
        owner = "%s.%s" % (fn.module_name, fn.class_name)
        for ancestor in self._ancestors(owner):
            basename = ancestor.rsplit(".", 1)[-1]
            methods = SOURCE_METHODS.get(basename)
            if methods is not None and fn.name in methods:
                return True
        return False

    @staticmethod
    def _marker_source(func: ast.Attribute, name: str,
                       fn: FunctionInfo) -> bool:
        text = (dotted_ref(func.value) or "").lower()
        if not any(
            marker in text and name in methods
            for marker, methods in _MARKER_SOURCES
        ):
            return False
        # A bare name the function never binds is module-level state
        # (``_PARSE_CACHE.get`` is a memo dict), not an injected
        # cache/adapter/log object.
        receiver = func.value
        return (
            not isinstance(receiver, ast.Name)
            or receiver.id in fn.params
            or any(
                isinstance(node, ast.Name)
                and node.id == receiver.id
                and isinstance(node.ctx, ast.Store)
                for node in ast.walk(fn.node)
            )
        )

    # -- effect and parameter-mutation inference -------------------------

    def _effect_of(self, fn: FunctionInfo, plan: _Plan) -> str:
        """Join of the function's own intrinsic effects and its
        resolved callees' summary effects (axioms trump bodies).
        Monotone in the callee summaries, so the enclosing SCC
        fixpoint converges; in-SCC callees without a summary yet read
        as ``pure`` (optimistic bottom) until the next pass."""
        decreed = axiom_effect(fn)
        if decreed is not None:
            return decreed
        effect = plan.effect
        for qualname in plan.effect_callees:
            summary = self._summaries.get(qualname)
            if summary is not None:
                effect = join_effects(effect, summary.effect)
        return effect

    def _mutated_params(self, plan: _Plan, op: str) -> FrozenSet[int]:
        """The parameters the body grows (*op* ``"grow"``) or shrinks
        itself, plus those it hands to a callee parameter whose
        summary does — monotone, like :meth:`_effect_of`."""
        mutated = set(plan.mutated[op])
        for qualname, position, index in plan.param_edges:
            summary = self._summaries.get(qualname)
            if summary is not None and position in (
                summary.grown_params if op == "grow"
                else summary.shrunk_params
            ):
                mutated.add(index)
        return frozenset(mutated)

    def _plan(self, fn: FunctionInfo) -> _Plan:
        """The syntactic half of effect and parameter-mutation
        inference, from one walk of the body: the join of the
        intrinsic/axiom effects visible in it plus the non-axiom
        callees to join in, and the parameters (or local aliases of
        one) mutated in place plus those passed on to a callee.
        Nested ``def`` bodies count — deferred work belongs to the
        frame that lexically contains it — while passing a callable
        *reference* contributes nothing."""
        plan = self._plans.get(fn.qualname)
        if plan is not None:
            return plan
        effect = EFFECT_PURE
        callees: Set[str] = set()
        mutated: Dict[str, Set[int]] = {"grow": set(), "shrink": set()}
        edges: List[Tuple[str, int, int]] = []
        aliases = {name: index for index, name in enumerate(fn.params)}

        def mark(op: Optional[str], expr: ast.expr) -> None:
            if op is not None and isinstance(expr, ast.Name) \
                    and expr.id in aliases:
                mutated[op].add(aliases[expr.id])

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                effect = join_effects(effect, intrinsic_read_effect(node))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name):
                    if isinstance(value, ast.Name) and value.id in aliases:
                        aliases[target.id] = aliases[value.id]
                    else:
                        aliases.pop(target.id, None)
                elif isinstance(target, ast.Subscript):
                    mark("grow", target.value)
            elif isinstance(node, ast.AugAssign):
                mark("grow", node.target)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        mark("shrink", target.value)
            elif isinstance(node, ast.Call):
                resolution = self.resolver.resolve(node, fn)
                for callee in resolution.targets:
                    decreed = axiom_effect(callee)
                    if decreed is not None:
                        effect = join_effects(effect, decreed)
                    else:
                        callees.add(callee.qualname)
                if not resolution.targets:
                    effect = join_effects(
                        effect, intrinsic_call_effect(node)
                    )
                edges.extend(_call_mutations(
                    node, resolution, aliases, mark
                ))
        plan = _Plan(effect, tuple(sorted(callees)), mutated, tuple(edges))
        self._plans[fn.qualname] = plan
        return plan

    # -- simulator re-entrancy ------------------------------------------

    def _reaches_sim_run(self, fn: FunctionInfo) -> bool:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SIM_RUN_METHODS
                and self.sim_receiver(func.value, fn)
            ):
                return True
            for target in self.resolver.resolve(node, fn).targets:
                summary = self._summaries.get(target.qualname)
                if summary is not None and summary.reaches_sim_run:
                    return True
        return False

    def sim_receiver(self, expr: ast.expr,
                     fn: FunctionInfo) -> bool:
        """Does *expr* look like (or resolve to) a Simulator?"""
        qualname = self.resolver.receiver_class(expr, fn)
        if qualname is not None:
            return qualname.rsplit(".", 1)[-1] == "Simulator"
        receiver = dotted_ref(expr) or ""
        tail = receiver.rsplit(".", 1)[-1].lower()
        return tail in ("sim", "simulator") or tail.endswith("_sim")
