"""Per-module symbol tables: names the call-graph can bind.

For every module the table records module-level functions, classes
(with raw base references, methods, and inferred ``self.attr`` types)
and the import alias map. Resolution to *project* entities (classes
defined elsewhere, adapter subclass sets) happens at the
:class:`~repro.analysis.ir.project.Project` level — this module is
purely syntactic so it stays cheap.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleSymbols",
    "annotation_ref",
    "dotted_ref",
]


class FunctionInfo:
    """A module-level function or a class method."""

    __slots__ = ("name", "qualname", "module_name", "relpath",
                 "class_name", "node", "params", "param_annotations",
                 "return_annotation")

    def __init__(
        self,
        name: str,
        qualname: str,
        module_name: str,
        relpath: str,
        class_name: Optional[str],
        node: ast.FunctionDef,
    ) -> None:
        self.name = name
        #: Project-unique dotted name, e.g.
        #: ``repro.core.server.GupsterServer.resolve``.
        self.qualname = qualname
        self.module_name = module_name
        self.relpath = relpath
        self.class_name = class_name
        self.node = node
        args = node.args
        ordered = args.posonlyargs + args.args + args.kwonlyargs
        #: Ordered parameter names (``self`` included for methods).
        self.params: List[str] = [arg.arg for arg in ordered]
        #: Parameter name -> raw annotation reference (dotted string),
        #: e.g. ``{"server": "GupsterServer"}``; unresolved aliases.
        self.param_annotations: Dict[str, str] = {}
        for arg in ordered:
            ref = annotation_ref(arg.annotation)
            if ref is not None:
                self.param_annotations[arg.arg] = ref
        #: Raw return annotation reference, when present.
        self.return_annotation: Optional[str] = annotation_ref(
            node.returns
        )

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def __repr__(self) -> str:
        return "<FunctionInfo %s>" % self.qualname


class ClassInfo:
    """A class definition with its methods and inferred attr types."""

    __slots__ = ("name", "qualname", "module_name", "relpath", "node",
                 "base_refs", "methods", "attr_refs")

    def __init__(
        self,
        name: str,
        qualname: str,
        module_name: str,
        relpath: str,
        node: ast.ClassDef,
    ) -> None:
        self.name = name
        self.qualname = qualname
        self.module_name = module_name
        self.relpath = relpath
        self.node = node
        #: Raw base-class references (dotted, unresolved).
        self.base_refs: List[str] = []
        for base in node.bases:
            ref = dotted_ref(base)
            if ref is not None:
                self.base_refs.append(ref)
        self.methods: Dict[str, FunctionInfo] = {}
        #: Attribute name -> raw type reference, inferred from
        #: ``self.x: T``, ``self.x = param`` (annotated parameter),
        #: ``self.x = SomeClass(...)`` and class-level ``x: T``.
        self.attr_refs: Dict[str, str] = {}

    def __repr__(self) -> str:
        return "<ClassInfo %s>" % self.qualname


def dotted_ref(expr: Optional[ast.expr]) -> Optional[str]:
    """``a.b.c`` as a dotted string, or None for non-name shapes."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def annotation_ref(expr: Optional[ast.expr]) -> Optional[str]:
    """Best-effort class reference inside an annotation.

    Unwraps ``Optional[T]`` (and string annotations); gives up on
    ``Union`` of several concrete types, containers and callables —
    resolution must stay an *under*-approximation so confident call
    binding never points at the wrong class.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            parsed = ast.parse(expr.value, mode="eval")
        except SyntaxError:
            return None
        return annotation_ref(parsed.body)
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return dotted_ref(expr)
    if isinstance(expr, ast.Subscript):
        head = dotted_ref(expr.value)
        if head is None:
            return None
        base = head.split(".")[-1]
        if base == "Optional":
            return annotation_ref(expr.slice)
        return None
    return None


def _constructed_ref(expr: ast.expr,
                     fn: FunctionInfo) -> Optional[str]:
    """Type reference for the RHS of a ``self.x = ...`` assignment."""
    if isinstance(expr, ast.IfExp):
        return (
            _constructed_ref(expr.body, fn)
            or _constructed_ref(expr.orelse, fn)
        )
    if isinstance(expr, ast.Name):
        return fn.param_annotations.get(expr.id)
    if isinstance(expr, ast.Call):
        return dotted_ref(expr.func)
    return None


class ModuleSymbols:
    """Everything nameable at a module's top level."""

    __slots__ = ("module_name", "relpath", "imports",
                 "import_targets", "functions", "classes")

    def __init__(self, module_name: str, relpath: str,
                 tree: ast.Module) -> None:
        self.module_name = module_name
        self.relpath = relpath
        #: Local name -> dotted target (module or ``module.Symbol``).
        self.imports: Dict[str, str] = {}
        #: Full dotted names of every import, independent of the local
        #: binding — ``import repro.sync.syncml`` binds ``repro`` but
        #: depends on ``repro.sync.syncml``.
        self.import_targets: Set[str] = set()
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._collect(tree)

    # -- construction -------------------------------------------------------

    def _collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0]
                    )
                    self.imports.setdefault(local, target)
                    self.import_targets.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._from_base(node)
                if base is None:
                    continue
                self.import_targets.add(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports.setdefault(
                        local, "%s.%s" % (base, alias.name)
                    )
                    self.import_targets.add(
                        "%s.%s" % (base, alias.name)
                    )
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = FunctionInfo(
                    node.name,
                    "%s.%s" % (self.module_name, node.name),
                    self.module_name, self.relpath, None, node,
                )
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)

    def _from_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base of a ``from X import ...``."""
        if not node.level:
            return node.module
        parts = self.module_name.split(".")
        # level=1 in a module strips the module name itself; each
        # additional level strips one package.
        anchor = parts[:-node.level]
        if not anchor:
            return node.module
        if node.module:
            return ".".join(anchor + [node.module])
        return ".".join(anchor)

    def _collect_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(
            node.name,
            "%s.%s" % (self.module_name, node.name),
            self.module_name, self.relpath, node,
        )
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                info.methods[item.name] = FunctionInfo(
                    item.name,
                    "%s.%s" % (info.qualname, item.name),
                    self.module_name, self.relpath, node.name, item,
                )
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                ref = annotation_ref(item.annotation)
                if ref is not None:
                    info.attr_refs.setdefault(item.target.id, ref)
        for method in info.methods.values():
            self._infer_attr_types(info, method)
        self.classes[node.name] = info

    def _infer_attr_types(self, info: ClassInfo,
                          method: FunctionInfo) -> None:
        for node in ast.walk(method.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                annotation = node.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            ref: Optional[str] = None
            if annotation is not None:
                ref = annotation_ref(annotation)
            if ref is None and value is not None:
                ref = _constructed_ref(value, method)
            if ref is not None:
                info.attr_refs.setdefault(target.attr, ref)

    # -- queries ------------------------------------------------------------

    def resolve_local(self, dotted: str) -> Optional[str]:
        """Absolute dotted name for a local reference, or None.

        ``GupsterServer`` -> ``repro.core.server.GupsterServer`` when
        imported, ``Helper`` -> ``<module>.Helper`` when defined here;
        dotted refs rewrite their root through the alias map."""
        head, _, rest = dotted.partition(".")
        if head in self.classes or head in self.functions:
            absolute = "%s.%s" % (self.module_name, head)
        elif head in self.imports:
            absolute = self.imports[head]
        else:
            return None
        return "%s.%s" % (absolute, rest) if rest else absolute

    def all_functions(self) -> List[FunctionInfo]:
        picked = list(self.functions.values())
        for cls in self.classes.values():
            picked.extend(cls.methods.values())
        return picked

    def class_and_method(
        self, fn: FunctionInfo
    ) -> Optional[Tuple[ClassInfo, FunctionInfo]]:
        if fn.class_name is None:
            return None
        cls = self.classes.get(fn.class_name)
        if cls is None:
            return None
        return cls, fn
