"""Interprocedural resource-bound analysis (gupcheck v4).

The GUP is an always-on service: profiles are entered once and then
served, pushed, cached and mirrored indefinitely, so any long-lived
object whose containers only grow is a slow-motion outage at
million-user scale.  This repo has hand-fixed three instances of that
bug family already (PR 1's cancelled-timer heap leak, PR 4's
``EndpointHealth._successes`` dict, PR 6's change log bounded only by
the slowest cursor).  This engine turns the family into a checked
contract: every container attribute of a **long-lived** class — and
every module-level container, which is process-lifetime by definition
— is classified into a three-point verdict lattice::

    bounded < evicting < unbounded

* **bounded** — the container cannot outgrow a static cap: it has no
  grow sites at all, it is a ``deque(maxlen=...)``, or every grow
  site is guarded by a ``len(x) < CAP`` comparison;
* **evicting** — there is a shrink site (``pop``/``del``/``clear``/
  compaction/rebind-to-empty) **on a path the grow path can
  trigger**: some function in the project reaches both a grow site
  and the shrink site through the call graph.  A ``clear()`` that
  only a test harness calls does not count — that is the whole
  point;
* **unbounded** — grow sites with no reachable eviction and no cap.

A fourth verdict, **declared**, is the human override: a field whose
defining assignment carries a ``# gupcheck: bounded[<reason>] --
<justification>`` comment is accepted as bounded by contract.  The
declarations are audited like suppressions (reason and justification
required, and the comment must actually attach to a tracked
container), so PR 6's "bounded by the slowest cursor" prose becomes
machine-checked documentation.

Long-lived roots are ``Simulator`` and ``Network``, any class whose
name marks it as infrastructure (``*Hub*``, ``*Bus*``, ``*Cache*``,
``*Registry*``, ``*Recorder*``), every :class:`BusListener` subclass,
the metrics instruments, plus everything **reachable** from a root's
attributes — attribute type inference and container annotations
(``Dict[str, ChangeLog]`` pulls in ``ChangeLog``) drive the closure.

Grow/shrink sites are found intraprocedurally on ``self.attr`` /
``obj.attr`` receivers (resolved through the call-graph's receiver
typing), and **interprocedurally** through the parameter sets of the
taint engine's one :class:`~repro.analysis.interproc.summaries.Summary`
(``grown_params`` / ``shrunk_params``, solved in the same call-SCC
fixpoint as every other summary bit): a helper that ``heappush``-es
into its parameter turns ``helper(self._heap)`` into a grow site
attributed to ``_heap`` at the call line.

The analyzer's own package (``repro/analysis/``) is exempt: gupcheck
is a run-to-completion batch tool whose caches die with the process —
the contract this engine checks is for the always-on service layer.
"""

from __future__ import annotations

import ast
import re
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Set,
    Tuple,
)

from repro.analysis.ir.symbols import (
    ClassInfo, FunctionInfo, dotted_ref,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.ir.project import Project, SourceModule

__all__ = [
    "BOUNDED_RE",
    "Declaration",
    "ContainerField",
    "GROW_METHODS",
    "GrowthAnalysis",
    "Owner",
    "SHRINK_METHODS",
    "Site",
    "VERDICTS",
    "VERDICT_BOUNDED",
    "VERDICT_DECLARED",
    "VERDICT_EVICTING",
    "VERDICT_UNBOUNDED",
    "container_intrinsic",
]

VERDICT_BOUNDED = "bounded"
VERDICT_EVICTING = "evicting"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_DECLARED = "declared"

#: Verdicts in lattice order (worst last). ``declared`` ranks with
#: ``bounded``: it is bounded-by-contract.
VERDICTS = (
    VERDICT_BOUNDED, VERDICT_DECLARED, VERDICT_EVICTING,
    VERDICT_UNBOUNDED,
)

#: ``# gupcheck: bounded[reason] -- justification`` — the declared
#: bound contract surface, shaped exactly like a suppression so the
#: two read as one annotation language.  The reason names *what*
#: bounds the container (a vocabulary, an invariant); the
#: justification says *why* that bound holds.
BOUNDED_RE = re.compile(
    r"#\s*gupcheck:\s*bounded\[(?P<reason>[^\]]*)\]"
    r"(?:\s*(?:--|:)\s*(?P<why>.*\S))?"
)

#: Root classes by exact name.
_ROOT_EXACT = frozenset({"Simulator", "Network"})

#: Root classes by name marker (infrastructure naming convention).
_ROOT_MARKERS = ("Hub", "Bus", "Cache", "Registry", "Recorder")

#: Classes whose subclasses are roots (registered as bus consumers).
_LISTENER_BASES = frozenset({"BusListener"})

#: The metrics instruments — held for the registry's lifetime.
_INSTRUMENT_CLASSES = frozenset({"Counter", "Gauge", "Histogram"})

#: Mutator method names that add elements.
GROW_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "extendleft",
    "insert", "setdefault", "update",
})

#: Mutator method names that remove elements.
SHRINK_METHODS = frozenset({
    "clear", "discard", "pop", "popitem", "popleft", "remove",
})

#: Module-level intrinsics: function name -> ("grow"|"shrink", arg).
_INTRINSICS = {
    "heappush": ("grow", 0),
    "heappushpop": ("grow", 0),
    "heappop": ("shrink", 0),
    "heapify": (None, 0),
}


def container_intrinsic(
    func: ast.expr,
) -> Optional[Tuple[Optional[str], int]]:
    """``(effect, argument position)`` when *func* names a heap
    intrinsic (``heapq.heappush`` and friends), else ``None``."""
    ref = dotted_ref(func)
    if ref is None:
        return None
    return _INTRINSICS.get(ref.split(".")[-1])


#: Container constructor name -> kind.
_CONSTRUCTOR_KINDS = {
    "list": "list",
    "dict": "dict",
    "set": "set",
    "deque": "deque",
    "defaultdict": "dict",
    "OrderedDict": "dict",
    "Counter": "dict",
}

#: The analyzer itself is a batch process; its caches are
#: process-lifetime by design and out of scope for the service
#: contract this engine checks.
_EXEMPT_PREFIXES = ("repro/analysis/",)

#: Package ``__init__`` re-exports followed to reach a class's definition.
_MAX_REEXPORT_HOPS = 4


class Site:
    """One grow or shrink evidence site."""

    __slots__ = ("relpath", "line", "op", "fn", "via", "guarded")

    def __init__(
        self,
        relpath: str,
        line: int,
        op: str,
        fn: str,
        via: Optional[str] = None,
        guarded: bool = False,
    ) -> None:
        self.relpath = relpath
        self.line = line
        #: The mutation shape (``append``, ``setitem``, ``rebind``…).
        self.op = op
        #: Qualname of the enclosing function (reachability unit).
        self.fn = fn
        #: Callee qualname when the mutation is helper-mediated.
        self.via = via
        #: True when lexically under an ``if len(field) <op> …`` test.
        self.guarded = guarded

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "relpath": self.relpath,
            "line": self.line,
            "op": self.op,
            "fn": self.fn,
        }
        if self.via is not None:
            data["via"] = self.via
        if self.guarded:
            data["guarded"] = True
        return data

    def __repr__(self) -> str:
        return "<Site %s@%s:%d>" % (self.op, self.relpath, self.line)


class Declaration:
    """One ``# gupcheck: bounded[...]`` comment."""

    __slots__ = ("relpath", "line", "reason", "justification",
                 "attached_to")

    def __init__(self, relpath: str, line: int, reason: str,
                 justification: Optional[str]) -> None:
        self.relpath = relpath
        self.line = line
        self.reason = reason
        self.justification = justification
        #: ``owner.field`` once a tracked container claims it.
        self.attached_to: Optional[str] = None


class ContainerField:
    """One tracked container attribute (or module-level container)."""

    __slots__ = ("owner", "name", "relpath", "line", "kind",
                 "capped_init", "grow_sites", "shrink_sites",
                 "declaration", "verdict", "reason")

    def __init__(self, owner: str, name: str, relpath: str,
                 line: int, kind: str, capped_init: bool) -> None:
        self.owner = owner
        self.name = name
        self.relpath = relpath
        self.line = line
        self.kind = kind
        #: True for ``deque(maxlen=...)`` — bounded by construction.
        self.capped_init = capped_init
        self.grow_sites: List[Site] = []
        self.shrink_sites: List[Site] = []
        self.declaration: Optional[Declaration] = None
        self.verdict = VERDICT_BOUNDED
        self.reason = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.owner, self.name)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "kind": self.kind,
            "line": self.line,
            "verdict": self.verdict,
            "reason": self.reason,
            "grow_sites": [s.to_dict() for s in self.grow_sites],
            "shrink_sites": [s.to_dict() for s in self.shrink_sites],
        }
        if self.declaration is not None:
            data["declared"] = {
                "reason": self.declaration.reason,
                "justification":
                    self.declaration.justification or "",
                "line": self.declaration.line,
            }
        return data

    def __repr__(self) -> str:
        return "<ContainerField %s.%s %s>" % (
            self.owner, self.name, self.verdict,
        )


class Owner:
    """A long-lived class (or a module holding global containers)."""

    __slots__ = ("qualname", "kind", "relpath", "line", "root_via",
                 "fields")

    def __init__(self, qualname: str, kind: str, relpath: str,
                 line: int, root_via: str) -> None:
        self.qualname = qualname
        #: ``class`` or ``module``.
        self.kind = kind
        self.relpath = relpath
        self.line = line
        #: Why this owner is long-lived (root rule or reachability).
        self.root_via = root_via
        self.fields: Dict[str, ContainerField] = {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "relpath": self.relpath,
            "line": self.line,
            "root_via": self.root_via,
            "fields": {
                name: self.fields[name].to_dict()
                for name in sorted(self.fields)
            },
        }


def _container_init(
    value: Optional[ast.expr],
) -> Optional[Tuple[str, bool]]:
    """``(kind, capped)`` when *value* constructs a mutable container."""
    if value is None:
        return None
    if isinstance(value, (ast.List, ast.ListComp)):
        return ("list", False)
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return ("dict", False)
    if isinstance(value, (ast.Set, ast.SetComp)):
        return ("set", False)
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
        for side in (value.left, value.right):
            if isinstance(side, ast.List):
                return ("list", False)
        return None
    if isinstance(value, ast.Call):
        ref = dotted_ref(value.func)
        if ref is None:
            return None
        kind = _CONSTRUCTOR_KINDS.get(ref.split(".")[-1])
        if kind is None:
            return None
        capped = False
        if kind == "deque":
            for kw in value.keywords:
                if kw.arg == "maxlen" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                ):
                    capped = True
        return (kind, capped)
    return None


def _annotation_class_names(expr: Optional[ast.expr]) -> Set[str]:
    """Every dotted name inside an annotation — including container
    element types (``Dict[str, ChangeLog]`` yields ``ChangeLog``),
    which :func:`annotation_ref` deliberately gives up on."""
    names: Set[str] = set()
    if expr is None:
        return names
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            parsed = ast.parse(expr.value, mode="eval")
        except SyntaxError:
            return names
        return _annotation_class_names(parsed.body)
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            ref = dotted_ref(node)
            if ref is not None:
                names.add(ref)
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            names |= _annotation_class_names(parsed.body)
    return names


class GrowthAnalysis:
    """Whole-program container-growth verdicts over a Project."""

    def __init__(self, project: "Project") -> None:
        self.project = project
        self.resolver = project.taint.resolver
        self.graph = project.taint.callgraph
        #: Owner qualname -> Owner (classes and module pseudo-owners).
        self.owners: Dict[str, Owner] = {}
        #: (owner, field) -> ContainerField, for site attribution.
        self._fields: Dict[Tuple[str, str], ContainerField] = {}
        #: relpath -> declarations found in that module.
        self.declarations: Dict[str, List[Declaration]] = {}
        #: Module-global containers: "module.NAME" -> field key.
        self._globals: Dict[str, Tuple[str, str]] = {}
        self._scan_declarations()
        self._collect_owners()
        self._collect_sites()
        self._attach_declarations()
        self._compute_verdicts()

    # -- eligibility ----------------------------------------------------

    @staticmethod
    def eligible(relpath: str) -> bool:
        if not relpath.startswith("repro/"):
            return False
        return not any(
            relpath.startswith(p) for p in _EXEMPT_PREFIXES
        )

    def _modules(self) -> List["SourceModule"]:
        return [
            m for m in self.project.modules_in_order()
            if self.eligible(m.relpath)
        ]

    # -- declarations ---------------------------------------------------

    def _scan_declarations(self) -> None:
        for module in self._modules():
            found: List[Declaration] = []
            for lineno, text in module.info._comment_tokens():
                match = BOUNDED_RE.search(text)
                if match is None:
                    continue
                found.append(Declaration(
                    module.relpath, lineno,
                    match.group("reason").strip(),
                    match.group("why"),
                ))
            if found:
                self.declarations[module.relpath] = found

    def _attach_declarations(self) -> None:
        """A declaration covers the container init on its own line,
        or — when it sits on a standalone comment line — the init on
        the line below (the suppression convention)."""
        by_loc: Dict[Tuple[str, int], ContainerField] = {}
        for field in self._fields.values():
            by_loc[(field.relpath, field.line)] = field
        for decls in self.declarations.values():
            for decl in decls:
                for line in (decl.line, decl.line + 1):
                    field = by_loc.get((decl.relpath, line))
                    if field is None:
                        continue
                    field.declaration = decl
                    decl.attached_to = "%s.%s" % (
                        field.owner, field.name,
                    )
                    break

    # -- owner discovery ------------------------------------------------

    def _is_root_class(self, cls: ClassInfo) -> Optional[str]:
        name = cls.name
        if name in _ROOT_EXACT:
            return "root: %s" % name
        for marker in _ROOT_MARKERS:
            if marker in name:
                return "root-marker: %s" % marker
        if name in _INSTRUMENT_CLASSES:
            return "root: metrics instrument"
        for ancestor in self._ancestor_names(cls.qualname):
            if ancestor in _LISTENER_BASES:
                return "root: %s subclass" % ancestor
        return None

    def _ancestor_names(self, qualname: str) -> Set[str]:
        names: Set[str] = set()
        seen: Set[str] = set()
        frontier = list(self.project.bases_of(qualname))
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            names.add(base.rsplit(".", 1)[-1])
            frontier.extend(self.project.bases_of(base))
        return names

    def _collect_owners(self) -> None:
        eligible_classes = [
            cls for cls in self.project.classes.values()
            if self.eligible(cls.relpath)
        ]
        roots: Dict[str, str] = {}
        for cls in eligible_classes:
            via = self._is_root_class(cls)
            if via is not None:
                roots[cls.qualname] = via
        # Reachability closure: anything a long-lived object holds is
        # long-lived too.
        via_of: Dict[str, str] = dict(roots)
        frontier = sorted(roots)
        while frontier:
            current = frontier.pop()
            cls = self.project.classes.get(current)
            if cls is None:
                continue
            for ref in sorted(self._held_class_refs(cls)):
                if ref in via_of or not self.eligible(
                    self.project.classes[ref].relpath
                ):
                    continue
                via_of[ref] = "reachable: %s" % current
                frontier.append(ref)
        for qualname in sorted(via_of):
            cls = self.project.classes[qualname]
            owner = Owner(
                qualname, "class", cls.relpath,
                cls.node.lineno, via_of[qualname],
            )
            self._collect_class_fields(cls, owner)
            self.owners[qualname] = owner
        self._collect_module_globals()

    def _held_class_refs(self, cls: ClassInfo) -> Set[str]:
        """Project classes this class's attributes may hold —
        inferred attr types, annotation element types, classes
        constructed into the class's own containers, and its bases."""
        module = self.project.modules.get(cls.module_name)
        if module is None:  # pragma: no cover - defensive
            return set()
        raw: Set[str] = set(cls.attr_refs.values())
        for node in ast.walk(cls.node):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                is_self_attr = (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
                if is_self_attr or isinstance(target, ast.Name):
                    raw |= _annotation_class_names(node.annotation)
            elif isinstance(node, ast.Assign):
                # self.x[k] = SomeClass(...) stores an element.
                target = node.targets[0] if node.targets else None
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(node.value, ast.Call)
                ):
                    ref = dotted_ref(node.value.func)
                    if ref is not None:
                        raw.add(ref)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in GROW_METHODS:
                # self.x.append(SomeClass(...)) stores an element.
                for arg in node.args:
                    if isinstance(arg, ast.Call):
                        ref = dotted_ref(arg.func)
                        if ref is not None:
                            raw.add(ref)
        # A base class's fields are this object's fields: the base is
        # held for exactly as long (QueryExecutor's collaborators are
        # wired in QueryHost.__init__).
        resolved: Set[str] = set(self.project.bases_of(cls.qualname))
        for ref in sorted(raw):
            absolute = module.symbols.resolve_local(ref)
            for _hop in range(_MAX_REEXPORT_HOPS):
                # `from repro.access import X` names the package's
                # re-export: follow its __init__'s own import of X.
                package, _, name = (absolute or "").rpartition(".")
                exporter = self.project.modules.get(package)
                if absolute in self.project.classes or exporter is None:
                    break
                absolute = exporter.symbols.imports.get(name)
            if absolute in self.project.classes:
                resolved.add(absolute)
        return resolved

    # -- field discovery ------------------------------------------------

    def _collect_class_fields(self, cls: ClassInfo,
                              owner: Owner) -> None:
        # __init__ first so the defining line is the canonical init.
        methods = sorted(
            cls.methods.values(),
            key=lambda m: (m.name != "__init__", m.node.lineno),
        )
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                self._register_field(
                    owner, item.target.id, item.value, item.lineno,
                )
        for method in methods:
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and \
                        len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                self._register_field(
                    owner, target.attr, value, node.lineno,
                )

    def _register_field(self, owner: Owner, name: str,
                        value: Optional[ast.expr],
                        line: int) -> None:
        init = _container_init(value)
        if init is None or name in owner.fields:
            return
        kind, capped = init
        field = ContainerField(
            owner.qualname, name, owner.relpath, line, kind, capped,
        )
        owner.fields[name] = field
        self._fields[field.key] = field

    def _collect_module_globals(self) -> None:
        """Module-level containers are process-lifetime by
        definition — no reachability argument needed."""
        for module in self._modules():
            owner: Optional[Owner] = None
            for node in module.info.tree.body:
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and \
                        len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue
                init = _container_init(value)
                if init is None:
                    continue
                if owner is None:
                    owner = Owner(
                        module.name, "module", module.relpath, 1,
                        "module-level: process lifetime",
                    )
                    self.owners[module.name] = owner
                self._register_field(owner, name, value, node.lineno)
                self._globals["%s.%s" % (module.name, name)] = (
                    module.name, name,
                )

    # -- site discovery -------------------------------------------------

    def _collect_sites(self) -> None:
        for module in self._modules():
            for fn in module.symbols.all_functions():
                self._scan_function(fn)

    def _scan_function(self, fn: FunctionInfo) -> None:
        aliases = self._field_aliases(fn)
        finder = _SiteFinder(self, fn, aliases)
        finder.visit_block(fn.node.body)

    def _field_aliases(
        self, fn: FunctionInfo
    ) -> Dict[str, Tuple[str, str]]:
        """Local names bound to a tracked field (``log = self._log``)."""
        aliases: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            key = self.field_of(node.value, fn, {})
            if key is not None:
                aliases[node.targets[0].id] = key
        return aliases

    def field_of(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        aliases: Dict[str, Tuple[str, str]],
    ) -> Optional[Tuple[str, str]]:
        """The tracked container *expr* denotes, if any."""
        if isinstance(expr, ast.Name):
            if expr.id in fn.params:
                return None
            alias = aliases.get(expr.id)
            if alias is not None:
                return alias
            return self._global_field(expr.id, fn)
        if isinstance(expr, ast.Attribute):
            owner = self.resolver.receiver_class(expr.value, fn)
            if owner is None:
                # mod.GLOBAL through the import alias map.
                ref = dotted_ref(expr)
                if ref is not None:
                    return self._global_field(ref, fn)
                return None
            return self._field_on(owner, expr.attr)
        return None

    def _global_field(
        self, ref: str, fn: FunctionInfo
    ) -> Optional[Tuple[str, str]]:
        module = self.project.modules.get(fn.module_name)
        if module is None:  # pragma: no cover - defensive
            return None
        direct = "%s.%s" % (fn.module_name, ref)
        if direct in self._globals:
            return self._globals[direct]
        absolute = module.symbols.resolve_local(ref)
        if absolute is None:
            # Plain global name: imported names resolve above; local
            # module globals were covered by ``direct``.
            head, _, rest = ref.partition(".")
            if head in module.symbols.imports and rest:
                absolute = "%s.%s" % (
                    module.symbols.imports[head], rest,
                )
        if absolute is not None and absolute in self._globals:
            return self._globals[absolute]
        return None

    def _field_on(
        self, owner_qualname: str, attr: str
    ) -> Optional[Tuple[str, str]]:
        """The defining owner of ``attr`` in *owner_qualname*'s MRO."""
        seen: Set[str] = set()
        frontier = [owner_qualname]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            owner = self.owners.get(current)
            if owner is not None and attr in owner.fields:
                return (current, attr)
            frontier.extend(self.project.bases_of(current))
        return None

    def record(self, key: Tuple[str, str], effect: str,
               site: Site) -> None:
        field = self._fields[key]
        if effect == "grow":
            field.grow_sites.append(site)
        else:
            field.shrink_sites.append(site)

    # -- verdicts -------------------------------------------------------

    def _compute_verdicts(self) -> None:
        for field in self._fields.values():
            field.verdict, field.reason = self._verdict(field)

    def _verdict(self, field: ContainerField) -> Tuple[str, str]:
        if field.declaration is not None:
            return (
                VERDICT_DECLARED,
                "declared[%s]" % field.declaration.reason,
            )
        if field.capped_init:
            return (VERDICT_BOUNDED, "deque-maxlen")
        if not field.grow_sites:
            return (VERDICT_BOUNDED, "no-grow-sites")
        if all(site.guarded for site in field.grow_sites):
            return (VERDICT_BOUNDED, "cap-guard")
        if self._shrink_reachable(field):
            return (VERDICT_EVICTING, "shrink-on-grow-path")
        return (VERDICT_UNBOUNDED, "grow-without-eviction")

    def _shrink_reachable(self, field: ContainerField) -> bool:
        """Is some shrink site on a path the grow path can trigger —
        i.e. does any function reach (through the call graph) both a
        grow site and a shrink site?  Equivalently: the caller
        closures of a grow function and a shrink function intersect.
        A shrink only a test harness calls has a disjoint closure and
        does not count."""
        if not field.shrink_sites:
            return False
        grow_fns = {site.fn for site in field.grow_sites}
        grow_ancestors = self._caller_closure(grow_fns)
        for site in field.shrink_sites:
            if site.fn in grow_ancestors:
                return True
            if self._caller_closure({site.fn}) & grow_ancestors:
                return True
        return False

    def _caller_closure(self, fns: Set[str]) -> Set[str]:
        closure: Set[str] = set(fns)
        frontier = list(fns)
        callers = self.graph.callers
        while frontier:
            current = frontier.pop()
            for caller in callers.get(current, ()):
                if caller not in closure:
                    closure.add(caller)
                    frontier.append(caller)
        return closure

    # -- results --------------------------------------------------------

    def fields(self) -> List[ContainerField]:
        return [
            self._fields[key] for key in sorted(self._fields)
        ]

    def unbounded(self) -> List[ContainerField]:
        return [
            field for field in self.fields()
            if field.verdict == VERDICT_UNBOUNDED
        ]

    def counts(self) -> Dict[str, int]:
        tally = {verdict: 0 for verdict in VERDICTS}
        for field in self.fields():
            tally[field.verdict] += 1
        return tally


class _SiteFinder:
    """Statement walker recording grow/shrink sites for one function,
    tracking the enclosing ``if len(field) …`` guard context."""

    def __init__(
        self,
        analysis: GrowthAnalysis,
        fn: FunctionInfo,
        aliases: Dict[str, Tuple[str, str]],
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.aliases = aliases
        #: Field keys whose ``len()`` the active ``if`` tests mention.
        self._guards: List[Set[Tuple[str, str]]] = []

    # -- helpers --------------------------------------------------------

    def _field_of(self, expr: ast.expr) -> Optional[Tuple[str, str]]:
        return self.analysis.field_of(expr, self.fn, self.aliases)

    def _guarded(self, key: Tuple[str, str]) -> bool:
        return any(key in tests for tests in self._guards)

    def _site(self, node: ast.AST, op: str,
              key: Tuple[str, str],
              via: Optional[str] = None) -> Site:
        return Site(
            self.fn.relpath,
            getattr(node, "lineno", 0),
            op,
            self.fn.qualname,
            via=via,
            guarded=self._guarded(key),
        )

    def _record(self, node: ast.AST, effect: str, op: str,
                key: Tuple[str, str],
                via: Optional[str] = None) -> None:
        self.analysis.record(key, effect, self._site(
            node, op, key, via=via,
        ))

    def _len_guard_keys(
        self, test: ast.expr
    ) -> Set[Tuple[str, str]]:
        keys: Set[Tuple[str, str]] = set()
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and node.args
            ):
                key = self._field_of(node.args[0])
                if key is not None:
                    keys.add(key)
        return keys

    # -- walking --------------------------------------------------------

    def visit_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Nested defs have no FunctionInfo (no reachability
            # frame to attribute their sites to) — out of scope.
            return
        if isinstance(stmt, ast.If):
            keys = self._len_guard_keys(stmt.test)
            self._scan_expr(stmt.test)
            self._guards.append(keys)
            self.visit_block(stmt.body)
            self._guards.pop()
            # A shrink in the else-branch of a len test is still a
            # shrink; the *guard* credit only applies to the branch
            # the test dominates.
            self._guards.append(set())
            self.visit_block(stmt.orelse)
            self._guards.pop()
            return
        if isinstance(stmt, ast.Assign):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_rebind(stmt, stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            key = self._field_of(stmt.target)
            if key is not None:
                self._record(stmt, "grow", "augassign", key)
            self._scan_expr(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    key = self._field_of(target.value)
                    if key is not None:
                        self._record(stmt, "shrink", "delitem", key)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self.visit_block(stmt.body)
            self.visit_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self.visit_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.visit_block(stmt.body)
            for handler in stmt.handlers:
                self.visit_block(handler.body)
            self.visit_block(stmt.orelse)
            self.visit_block(stmt.finalbody)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_expr(child)

    def _visit_assign(self, stmt: ast.Assign) -> None:
        self._scan_expr(stmt.value)
        for target in stmt.targets:
            # ``self.x.setdefault(k, {})[j] = v``: the call inside the
            # store target is a grow site of its own.
            self._scan_expr(target)
            if isinstance(target, ast.Subscript):
                key = self._field_of(target.value)
                if key is not None:
                    field = self.analysis._fields[key]
                    # A list subscript store overwrites in place; a
                    # dict (or unknown) one inserts.
                    if field.kind != "list":
                        self._record(stmt, "grow", "setitem", key)
            elif isinstance(target, (ast.Attribute, ast.Name)):
                self._visit_rebind(stmt, target, stmt.value)

    def _visit_rebind(self, stmt: ast.stmt, target: ast.expr,
                      value: ast.expr) -> None:
        """``field = <expr>`` — a reset/trim is a shrink, a concat a
        grow, the defining init neither."""
        key = self._field_of(target)
        if key is None:
            return
        field = self.analysis._fields[key]
        if (
            field.relpath == self.fn.relpath
            and stmt.lineno == field.line
        ):
            return  # the defining init itself
        init = _container_init(value)
        if init is not None and not self._mentions_field(value, key):
            # Rebound to a fresh (empty or comprehension) container
            # not derived from itself: a reset. Comprehensions over
            # *other* data rebuild from a bounded source.
            self._record(stmt, "shrink", "rebind", key)
            return
        if self._mentions_field(value, key):
            if isinstance(value, (ast.ListComp, ast.SetComp,
                                  ast.DictComp, ast.GeneratorExp)):
                # Filter sweep: x = [e for e in x if keep(e)]
                self._record(stmt, "shrink", "filter-rebind", key)
            elif isinstance(value, ast.Subscript):
                self._record(stmt, "shrink", "slice-rebind", key)
            elif isinstance(value, ast.BinOp):
                self._record(stmt, "grow", "concat-rebind", key)

    def _mentions_field(self, value: ast.expr,
                        key: Tuple[str, str]) -> bool:
        for node in ast.walk(value):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if self._field_of(node) == key:
                    return True
        return False

    def _scan_expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._visit_call(node)

    def _visit_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            key = None
            inner = False
            if isinstance(receiver, ast.Subscript):
                # self.x[k].append(...) mutates a held value — growth
                # (or reclamation) of the outer field's footprint.
                key = self._field_of(receiver.value)
                inner = True
            else:
                key = self._field_of(receiver)
            if key is not None:
                op_prefix = "value-" if inner else ""
                if func.attr in GROW_METHODS:
                    self._record(
                        call, "grow", op_prefix + func.attr, key,
                    )
                    return
                if func.attr in SHRINK_METHODS:
                    self._record(
                        call, "shrink", op_prefix + func.attr, key,
                    )
                    return
        intrinsic = container_intrinsic(func)
        if intrinsic is not None:
            effect, arg_pos = intrinsic
            if effect is not None and len(call.args) > arg_pos:
                key = self._field_of(call.args[arg_pos])
                if key is not None:
                    ref = dotted_ref(func) or "?"
                    self._record(
                        call, effect, ref.split(".")[-1], key,
                    )
            return
        self._helper_call(call)

    def _helper_call(self, call: ast.Call) -> None:
        """``helper(self.x)`` where the callee's summary grows or
        shrinks that parameter — the interprocedural attribution."""
        field_args = [
            (position, self._field_of(arg))
            for position, arg in enumerate(call.args)
        ]
        if not any(key is not None for _, key in field_args):
            return
        resolution = self.analysis.resolver.resolve(call, self.fn)
        if not resolution.targets:
            return
        offset = 1 if (
            isinstance(call.func, ast.Attribute)
            and not resolution.is_constructor
        ) else 0
        for position, key in field_args:
            if key is None:
                continue
            for target in resolution.targets:
                summary = self.analysis.project.taint.summary_of(
                    target.qualname
                )
                if summary is None:
                    continue
                if position + offset in summary.grown_params:
                    self._record(
                        call, "grow", "helper", key,
                        via=target.qualname,
                    )
                if position + offset in summary.shrunk_params:
                    self._record(
                        call, "shrink", "helper", key,
                        via=target.qualname,
                    )
