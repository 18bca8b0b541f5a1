"""Call-site resolution and the function-level call graph.

:class:`CallResolver` binds an ``ast.Call`` inside a known function to
the project :class:`~repro.analysis.ir.symbols.FunctionInfo` targets
it may reach:

* ``name(...)`` — module function or class constructor through the
  import-alias map;
* ``self.m(...)`` — method lookup with base-class walk;
* ``recv.m(...)`` where the receiver's class is known from a parameter
  annotation, an inferred ``self.attr`` type, a local
  ``x = SomeClass(...)`` / ``x = self.attr`` assignment or an
  attribute chain over any of them (``host.server.resolve(...)``) —
  **interface dispatch**: the call
  binds to the static implementation *plus every project subclass
  override* (the ``adapters/base`` pattern);
* fallback: an unannotated receiver binds by method name only when
  every project method of that name lives in a single inheritance
  family — anything wider is left unresolved so confident taint never
  crosses to an unrelated class (``dict.get`` never binds to
  ``GupAdapter.get``).

:class:`CallGraph` collects the edges (nested ``def``/``lambda`` call
sites are attributed to the enclosing named function) and condenses
them with Tarjan for the summary fixpoint.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.ir.project import Project, tarjan_sccs
from repro.analysis.ir.symbols import (
    FunctionInfo, annotation_ref, dotted_ref,
)

__all__ = ["CallGraph", "CallResolver", "Resolution"]


class Resolution:
    """Outcome of resolving one call site."""

    __slots__ = ("targets", "confident", "is_constructor")

    def __init__(
        self,
        targets: List[FunctionInfo],
        confident: bool,
        is_constructor: bool = False,
    ) -> None:
        #: Candidate callees (empty when unresolved).
        self.targets = targets
        #: True when binding went through a resolved name/type;
        #: False for name-only fallback dispatch.
        self.confident = confident
        #: True when the call constructs a project class.
        self.is_constructor = is_constructor

    def __repr__(self) -> str:
        return "<Resolution %r confident=%s>" % (
            [t.qualname for t in self.targets], self.confident,
        )


_UNRESOLVED = Resolution([], True)


class CallResolver:
    """Binds call expressions to project functions."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._locals_cache: Dict[str, Dict[str, str]] = {}
        self._family_cache: Dict[str, FrozenSet[str]] = {}

    # -- public entry ---------------------------------------------------

    def resolve(self, call: ast.Call,
                fn: FunctionInfo) -> Resolution:
        func = call.func
        dotted = dotted_ref(func)
        if dotted is not None:
            direct = self._resolve_dotted(dotted, fn)
            if direct is not None:
                return direct
        if isinstance(func, ast.Attribute):
            return self._resolve_method(func, fn)
        return _UNRESOLVED

    def receiver_class(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        types: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Project class qualname of a receiver expression, if known:
        ``self``, an annotated parameter, a typed local, or any
        attribute chain over one (``host.server.cache``).  *types* is
        the local-type map to read bare names from —
        :meth:`_local_types` passes the partial map it is building so
        the lookup never recurses into it."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and fn.class_name is not None:
                return "%s.%s" % (fn.module_name, fn.class_name)
            ref = fn.param_annotations.get(expr.id)
            if ref is not None:
                qual = self._class_qualname(ref, fn.module_name)
                if qual is not None:
                    return qual
            if types is None:
                types = self._local_types(fn)
            return types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self.receiver_class(expr.value, fn, types)
            if owner is not None:
                return self._attr_class(owner, expr.attr)
        return None

    # -- name-shaped calls ---------------------------------------------

    def _resolve_dotted(
        self, dotted: str, fn: FunctionInfo
    ) -> Optional[Resolution]:
        """``name(...)`` / ``mod.name(...)`` through the alias map."""
        module = self.project.modules.get(fn.module_name)
        if module is None:  # pragma: no cover - defensive
            return None
        head = dotted.split(".", 1)[0]
        if head == "self":
            return None  # handled by _resolve_method
        absolute = module.symbols.resolve_local(dotted)
        if absolute is None:
            return None
        target_fn = self.project.functions.get(absolute)
        if target_fn is not None and not target_fn.is_method:
            return Resolution([target_fn], True)
        cls = self.project.classes.get(absolute)
        if cls is not None:
            init = self.project.method_on(absolute, "__init__")
            targets = [init] if init is not None else []
            return Resolution(targets, True, is_constructor=True)
        # ``alias.Class.method`` / ``alias.fn`` where the tail is a
        # method accessed through its class.
        owner, _, method = absolute.rpartition(".")
        if owner in self.project.classes:
            bound = self.project.method_on(owner, method)
            if bound is not None:
                return Resolution([bound], True)
        return None

    # -- attribute-shaped calls ----------------------------------------

    def _resolve_method(self, func: ast.Attribute,
                        fn: FunctionInfo) -> Resolution:
        name = func.attr
        owner = self.receiver_class(func.value, fn)
        if owner is not None:
            targets = self.project.implementations_of(owner, name)
            if targets:
                return Resolution(targets, True)
            return _UNRESOLVED
        return self._fallback_by_name(name)

    def _fallback_by_name(self, name: str) -> Resolution:
        """Name-only dispatch, restricted to one inheritance family."""
        candidates = self.project.methods_named(name)
        if not candidates:
            return _UNRESOLVED
        family: Optional[FrozenSet[str]] = None
        for method in candidates:
            owner = "%s.%s" % (
                method.module_name, method.class_name,
            )
            roots = self._family_roots(owner)
            if family is None:
                family = roots
            elif not (family & roots):
                return _UNRESOLVED
        return Resolution(list(candidates), False)

    def _family_roots(self, qualname: str) -> FrozenSet[str]:
        cached = self._family_cache.get(qualname)
        if cached is not None:
            return cached
        roots: Set[str] = set()
        seen: Set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            bases = self.project.bases_of(current)
            if not bases:
                roots.add(current)
            else:
                frontier.extend(bases)
        result = frozenset(roots)
        self._family_cache[qualname] = result
        return result

    # -- receiver typing -----------------------------------------------

    def _class_qualname(
        self, ref: str, module_name: str
    ) -> Optional[str]:
        """Resolve a raw class reference from ``module_name``."""
        if ref in self.project.classes:
            return ref
        module = self.project.modules.get(module_name)
        if module is None:
            return None
        absolute = module.symbols.resolve_local(ref)
        if absolute is not None and absolute in self.project.classes:
            return absolute
        return None

    def _attr_class(self, owner: str,
                    attr: str) -> Optional[str]:
        """Class of ``self.<attr>`` walking the base hierarchy."""
        seen: Set[str] = set()
        frontier = [owner]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.project.classes.get(current)
            if cls is None:
                continue
            ref = cls.attr_refs.get(attr)
            if ref is not None:
                return self._class_qualname(ref, cls.module_name)
            frontier.extend(self.project.bases_of(current))
        return None

    def _local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """``x = SomeClass(...)`` / ``x: T`` local type bindings,
        ``x = self.attr`` through the attribute's inferred class
        (``host = self.host``), plus ``x = recv.method()`` through
        the resolved callee's *return annotation*
        (``trace = network.trace()`` binds ``trace`` to the Trace
        class that ``Network.trace -> "Trace"`` names)."""
        cached = self._locals_cache.get(fn.qualname)
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            ref: Optional[str] = None
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
            ):
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                ref = annotation_ref(node.annotation)
            if not isinstance(target, ast.Name):
                continue
            qual: Optional[str] = None
            if ref is None and isinstance(value, ast.Call):
                ref = dotted_ref(value.func)
                if ref is not None:
                    qual = self._class_qualname(ref, fn.module_name)
                if qual is None:
                    qual = self._return_class(value, fn, types)
            elif ref is not None:
                qual = self._class_qualname(ref, fn.module_name)
            elif isinstance(value, ast.Attribute):
                qual = self.receiver_class(value, fn, types)
            if qual is not None and types.get(target.id, qual) == qual:
                types[target.id] = qual
            elif target.id in types and types[target.id] != qual:
                # Conflicting rebinding: drop to stay sound.
                del types[target.id]
        self._locals_cache[fn.qualname] = types
        return types

    def _return_class(
        self,
        call: ast.Call,
        fn: FunctionInfo,
        types: Dict[str, str],
    ) -> Optional[str]:
        """Project class the *call*'s return annotation names, if the
        callee resolves.  ``types`` is the partial local map built so
        far (statements are walked in order, so earlier bindings are
        visible)."""
        func = call.func
        callee: Optional[FunctionInfo] = None
        if isinstance(func, ast.Attribute):
            owner = self.receiver_class(func.value, fn, types)
            if owner is not None:
                callee = self.project.method_on(owner, func.attr)
        else:
            dotted = dotted_ref(func)
            module = self.project.modules.get(fn.module_name)
            if dotted is not None and module is not None:
                absolute = module.symbols.resolve_local(dotted)
                if absolute is not None:
                    callee = self.project.functions.get(absolute)
        if callee is None or callee.return_annotation is None:
            return None
        return self._class_qualname(
            callee.return_annotation, callee.module_name
        )


class CallGraph:
    """Function-level call graph + Tarjan condensation."""

    def __init__(self, project: Project,
                 resolver: Optional[CallResolver] = None) -> None:
        self.project = project
        self.resolver = resolver or CallResolver(project)
        #: caller qualname -> callee qualnames (confident and
        #: fallback targets alike; the taint engine re-resolves per
        #: call site when it needs the distinction).
        self.edges: Dict[str, Set[str]] = {
            qualname: set() for qualname in project.functions
        }
        self.callers: Dict[str, Set[str]] = {
            qualname: set() for qualname in project.functions
        }
        for fn in project.functions.values():
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                for target in self.resolver.resolve(node, fn).targets:
                    self.edges[fn.qualname].add(target.qualname)
                    self.callers.setdefault(
                        target.qualname, set()
                    ).add(fn.qualname)
        #: SCCs of the call graph, callees first — the summary
        #: fixpoint processes them in this order.
        self.sccs: List[Tuple[str, ...]] = tarjan_sccs(
            sorted(self.edges),
            lambda qualname: sorted(self.edges[qualname]),
        )

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())
