"""Project-level IR: module map, import graph, SCCs, class index.

The :class:`Project` is the whole-program view the interprocedural
engines run on.  It owns

* the dotted-name module map (``repro/core/server.py`` ->
  ``repro.core.server``);
* the *project-internal* import graph and its Tarjan SCC
  condensation (dependencies-first topological order);
* a project class index: base-class resolution, subclass maps and
  adapter-style interface dispatch (``implementations_of``).

The taint engine (:mod:`repro.analysis.interproc.taint`) is attached
lazily via :attr:`Project.taint`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
    Optional, Sequence, Set, Tuple,
)

from repro.analysis.ir.symbols import (
    ClassInfo, FunctionInfo, ModuleSymbols,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.framework import ModuleInfo
    from repro.analysis.interproc.taint import TaintEngine

__all__ = [
    "Project", "SourceModule", "module_name_for", "tarjan_sccs",
]


def module_name_for(relpath: str) -> str:
    """Dotted module name for an anchored relpath.

    ``repro/core/server.py`` -> ``repro.core.server``;
    ``repro/pxml/__init__.py`` -> ``repro.pxml``;
    ``tests/test_x.py`` -> ``tests.test_x``.
    """
    path = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else relpath


class SourceModule:
    """One analyzed module: raw info + symbol table + resolved deps."""

    __slots__ = ("info", "name", "symbols", "imports")

    def __init__(self, info: "ModuleInfo") -> None:
        self.info = info
        self.name = module_name_for(info.relpath)
        self.symbols = ModuleSymbols(
            self.name, info.relpath, info.tree
        )
        #: Project-internal module names this module imports
        #: (resolved against the project module map by Project).
        self.imports: Set[str] = set()

    @property
    def relpath(self) -> str:
        return self.info.relpath

    def __repr__(self) -> str:
        return "<SourceModule %s>" % self.name


class Project:
    """Whole-program IR over a set of :class:`ModuleInfo` objects."""

    def __init__(self, infos: Sequence["ModuleInfo"]) -> None:
        self.modules: Dict[str, SourceModule] = {}
        self.by_relpath: Dict[str, SourceModule] = {}
        for info in infos:
            module = SourceModule(info)
            # Last writer wins on (unlikely) duplicate dotted names.
            self.modules[module.name] = module
            self.by_relpath[info.relpath] = module
        self._package_names = self._collect_packages()
        for module in self.modules.values():
            module.imports = self._internal_imports(module)
        #: SCCs of the import graph, dependencies first.  Each SCC is
        #: a sorted tuple of module (dotted) names.
        self.import_sccs: List[Tuple[str, ...]] = tarjan_sccs(
            sorted(self.modules),
            lambda name: sorted(self.modules[name].imports),
        )
        # -- class / function index ---------------------------------
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        for module in self.modules.values():
            for cls in module.symbols.classes.values():
                self.classes[cls.qualname] = cls
            for fn in module.symbols.all_functions():
                self.functions[fn.qualname] = fn
        self._base_qualnames: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, Set[str]] = {}
        self._link_classes()
        self._method_index: Dict[str, List[FunctionInfo]] = {}
        for fn in self.functions.values():
            if fn.is_method:
                self._method_index.setdefault(fn.name, []).append(fn)
        self._taint: Optional["TaintEngine"] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str]
    ) -> "Project":
        """Build a project from ``{relpath: source}`` (test fixtures)."""
        from repro.analysis.framework import ModuleInfo

        infos = []
        for relpath in sorted(sources):
            infos.append(
                ModuleInfo.from_source(sources[relpath], relpath)
            )
        return cls(infos)

    def _collect_packages(self) -> Set[str]:
        packages: Set[str] = set()
        for name in self.modules:
            parts = name.split(".")
            for i in range(1, len(parts)):
                packages.add(".".join(parts[:i]))
            packages.add(name)
        return packages

    def _internal_imports(self, module: SourceModule) -> Set[str]:
        """Module names in *this project* that ``module`` depends on."""
        deps: Set[str] = set()
        targets = set(module.symbols.imports.values())
        targets.update(module.symbols.import_targets)
        for target in sorted(targets):
            resolved = self.resolve_module(target)
            if resolved is not None and resolved != module.name:
                deps.add(resolved)
        return deps

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest project-module prefix of a dotted import target.

        ``repro.core.server.GupsterServer`` -> ``repro.core.server``;
        ``repro.core`` (a package) -> ``repro.core`` when
        ``repro/core/__init__.py`` is in the project, else the longest
        real module prefix; external names -> None.
        """
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # -- class index ----------------------------------------------------

    def _link_classes(self) -> None:
        for cls in self.classes.values():
            module = self.modules.get(cls.module_name)
            if module is None:  # pragma: no cover - defensive
                continue
            bases: List[str] = []
            for ref in cls.base_refs:
                absolute = module.symbols.resolve_local(ref)
                if absolute is not None and absolute in self.classes:
                    bases.append(absolute)
                    self._subclasses.setdefault(
                        absolute, set()
                    ).add(cls.qualname)
            self._base_qualnames[cls.qualname] = bases

    def find_class(self, qualname: str) -> Optional[ClassInfo]:
        return self.classes.get(qualname)

    def bases_of(self, qualname: str) -> List[str]:
        return self._base_qualnames.get(qualname, [])

    def subclasses_of(self, qualname: str) -> List[str]:
        """All project descendants (transitive), sorted."""
        seen: Set[str] = set()
        frontier = list(self._subclasses.get(qualname, ()))
        while frontier:
            sub = frontier.pop()
            if sub in seen:
                continue
            seen.add(sub)
            frontier.extend(self._subclasses.get(sub, ()))
        return sorted(seen)

    def method_on(
        self, qualname: str, name: str
    ) -> Optional[FunctionInfo]:
        """Method ``name`` on class ``qualname`` or its bases (BFS)."""
        seen: Set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            method = cls.methods.get(name)
            if method is not None:
                return method
            frontier.extend(self._base_qualnames.get(current, []))
        return None

    def implementations_of(
        self, qualname: str, name: str
    ) -> List[FunctionInfo]:
        """Interface dispatch: the base implementation (if any) plus
        every descendant override — e.g. a call through
        ``adapters/base`` resolves to all adapter subclasses."""
        picked: List[FunctionInfo] = []
        base = self.method_on(qualname, name)
        if base is not None:
            picked.append(base)
        for sub in self.subclasses_of(qualname):
            cls = self.classes.get(sub)
            if cls is not None and name in cls.methods:
                picked.append(cls.methods[name])
        return picked

    def methods_named(self, name: str) -> List[FunctionInfo]:
        """All project methods with a given name (fallback dispatch)."""
        return list(self._method_index.get(name, ()))

    # -- queries --------------------------------------------------------

    def modules_in_order(self) -> List[SourceModule]:
        """Modules in import-SCC topological order (deps first)."""
        ordered: List[SourceModule] = []
        for scc in self.import_sccs:
            for name in scc:
                ordered.append(self.modules[name])
        return ordered

    @property
    def taint(self) -> "TaintEngine":
        """The interprocedural taint/effects engine (its fixpoint
        runs over the whole project on the first summary query)."""
        if self._taint is None:
            from repro.analysis.interproc.taint import TaintEngine

            self._taint = TaintEngine(self)
        return self._taint


def tarjan_sccs(
    nodes: Sequence[str],
    successors: Callable[[str], Iterable[str]],
) -> List[Tuple[str, ...]]:
    """Iterative Tarjan SCC; returns SCCs dependencies-first.

    ``successors(node)`` must yield nodes in the graph; unknown names
    are ignored.  Tarjan emits SCCs in reverse topological order of
    the condensation, which for a dependency graph (edge = "imports")
    is exactly dependencies-first.
    """
    known = set(nodes)
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    for root in nodes:
        if root in index_of:
            continue
        # Each work item: (node, iterator over remaining successors).
        work: List[Tuple[str, Iterator[str]]] = [
            (root, iter(successors(root)))
        ]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in known:
                    continue
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(
                        lowlink[node], index_of[succ]
                    )
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(
                    lowlink[parent], lowlink[node]
                )
            if lowlink[node] == index_of[node]:
                members: List[str] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    members.append(top)
                    if top == node:
                        break
                sccs.append(tuple(sorted(members)))
    return sccs
