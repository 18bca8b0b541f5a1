"""The gupcheck analysis framework: modules, rules, suppressions, reports.

Deliberately dependency-free (stdlib ``ast`` only) so the analysis can
run anywhere the library runs, including CI bootstrap steps that have
not installed the dev toolchain yet.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.ir.project import Project

__all__ = [
    "Analyzer",
    "ModuleInfo",
    "ProjectRule",
    "Report",
    "Rule",
    "SEVERITIES",
    "SUPPRESSION_RULE",
    "Violation",
    "check_source",
]

#: Name of the meta-rule that flags malformed suppression comments.
SUPPRESSION_RULE = "suppression"

#: Severity levels, in increasing gravity. ``error`` fails the run;
#: ``warning`` is reported (and lands in SARIF) but does not gate.
SEVERITIES = ("warning", "error")

#: ``# gupcheck: ignore[determinism,layering] -- justification``
_SUPPRESS_RE = re.compile(
    r"#\s*gupcheck:\s*ignore\[(?P<rules>[^\]]*)\]"
    r"(?:\s*(?:--|:)\s*(?P<why>.*\S))?"
)


class Violation:
    """One finding: a rule broken at a source location."""

    __slots__ = ("rule", "path", "line", "col", "message",
                 "justification", "severity")

    def __init__(
        self,
        rule: str,
        path: str,
        line: int,
        col: int,
        message: str,
        justification: Optional[str] = None,
        severity: str = "error",
    ) -> None:
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        #: Set when the violation was suppressed (carries the reason).
        self.justification = justification
        #: ``error`` (gates the run) or ``warning`` (reported only).
        self.severity = severity if severity in SEVERITIES else "error"

    def fingerprint(self) -> str:
        """Location-independent identity (SARIF
        ``partialFingerprints``): line numbers shift on unrelated
        edits, so the fingerprint hashes rule + path + message only."""
        digest = hashlib.sha1(
            ("%s|%s|%s" % (self.rule, self.path, self.message))
            .encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
            "fingerprint": self.fingerprint(),
        }
        if self.justification is not None:
            data["justification"] = self.justification
        return data

    def __repr__(self) -> str:
        return "%s:%d:%d: [%s] %s" % (
            self.path, self.line, self.col, self.rule, self.message
        )


class _Suppression:
    __slots__ = ("line", "rules", "justification")

    def __init__(self, line: int, rules: Tuple[str, ...],
                 justification: Optional[str]) -> None:
        self.line = line
        self.rules = rules
        self.justification = justification


class ModuleInfo:
    """A parsed source module handed to every rule."""

    __slots__ = ("path", "relpath", "source", "tree", "lines",
                 "suppressions")

    def __init__(self, path: str, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        #: Package-relative posix path (``repro/core/server.py``) —
        #: what rule path filters match against.
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: line number -> suppression found *on* that line; a
        #: suppression on a standalone comment line also covers the
        #: next line (see :meth:`suppression_for`).
        self.suppressions: Dict[int, _Suppression] = {}
        self._scan_suppressions()

    @classmethod
    def from_source(cls, source: str, relpath: str,
                    path: Optional[str] = None) -> "ModuleInfo":
        tree = ast.parse(source, filename=path or relpath)
        return cls(path or relpath, relpath, source, tree)

    # -- suppressions -------------------------------------------------------

    def _scan_suppressions(self) -> None:
        # Only *real* comment tokens count: a suppression marker
        # inside a string literal (e.g. a test fixture or docstring
        # example) is data, not a suppression.
        for lineno, text in self._comment_tokens():
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            self.suppressions[lineno] = _Suppression(
                lineno, rules, match.group("why")
            )

    def _comment_tokens(self) -> List[Tuple[int, str]]:
        """``(lineno, text)`` of each comment token; falls back to a
        plain line scan if tokenization fails (it should not: the
        source already parsed)."""
        try:
            return [
                (token.start[0], token.string)
                for token in tokenize.generate_tokens(
                    io.StringIO(self.source).readline
                )
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return list(enumerate(self.lines, start=1))

    def suppression_for(self, rule: str, line: int) -> Optional[_Suppression]:
        """The suppression covering *rule* at *line*, if any.

        A suppression covers its own line; when it sits on a
        standalone comment line it also covers the line below (the
        usual place to put it when the code line is already long)."""
        for candidate_line in (line, line - 1):
            supp = self.suppressions.get(candidate_line)
            if supp is None or rule not in supp.rules:
                continue
            if candidate_line == line - 1:
                stripped = self.lines[candidate_line - 1].lstrip()
                if not stripped.startswith("#"):
                    continue  # trailing comment only covers its own line
            return supp
        return None


class Rule:
    """Base class for gupcheck rules.

    Subclasses set :attr:`name`, :attr:`description` and the
    :attr:`prefixes` path filter, and implement :meth:`check`.
    """

    #: Short kebab-case identifier used in reports and suppressions.
    name = ""
    #: One-line statement of the invariant the rule protects.
    description = ""
    #: Relpath prefixes the rule applies to; empty = every module.
    prefixes: Tuple[str, ...] = ()
    #: ``error`` findings gate the run; ``warning`` findings do not.
    severity = "error"

    def applies_to(self, relpath: str) -> bool:
        return not self.prefixes or any(
            relpath.startswith(prefix) for prefix in self.prefixes
        )

    def check(self, module: ModuleInfo) -> List[Violation]:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def violation(self, module: ModuleInfo, node: ast.AST,
                  message: str) -> Violation:
        return Violation(
            self.name,
            module.relpath,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A whole-program rule: sees the project IR, not one module.

    Project rules run after every module is parsed, on the
    :class:`~repro.analysis.ir.project.Project` (import/call graph +
    interprocedural summaries). They report per module through
    :meth:`check_module`, so their findings pass the same per-module
    suppression filter as every other rule's.
    """

    def check(self, module: ModuleInfo) -> List[Violation]:
        return []  # project rules contribute via check_module only

    def check_module(self, project: "Project",
                     module: ModuleInfo) -> List[Violation]:
        """Violations attributable to *module*, given whole-program
        context."""
        raise NotImplementedError

    def check_project(self, project: "Project") -> List[Violation]:
        found: List[Violation] = []
        for pmodule in project.modules_in_order():
            found.extend(self.check_module(project, pmodule.info))
        return found


class Report:
    """Aggregated result of an analysis run."""

    def __init__(self, rules: Sequence[Rule], project: "Project") -> None:
        self.rule_names = [rule.name for rule in rules]
        #: The whole-program IR the findings were computed from —
        #: what the ``--effects`` artefact reads.
        self.project = project
        self.files_scanned = 0
        #: Active violations (error-severity ones fail the analysis).
        self.violations: List[Violation] = []
        #: Violations silenced by a justified suppression comment.
        self.suppressed: List[Violation] = []
        #: (path, message) pairs for files that could not be parsed.
        self.errors: List[Tuple[str, str]] = []
        #: relpath -> filesystem path, for SARIF artifact URIs.
        self.paths: Dict[str, str] = {}

    @property
    def failing(self) -> List[Violation]:
        """Active violations that gate the run (error severity)."""
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.failing and not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "gupcheck": 2,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules": list(self.rule_names),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "errors": [
                {"path": path, "message": message}
                for path, message in self.errors
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class Analyzer:
    """Runs a rule set over modules / source trees."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        from repro.analysis.rules import ALL_RULES, default_rules

        self.rules = list(default_rules() if rules is None else rules)
        #: The suppression audit's vocabulary is every *registered*
        #: rule, not the active subset: under ``--rules X`` a
        #: suppression naming an inactive rule is simply not audited.
        self._known_rules = {
            rule.name for rule in (*ALL_RULES, *self.rules)
        } | {SUPPRESSION_RULE}

    # -- single module ------------------------------------------------------

    def analyze_module(
        self, module: ModuleInfo
    ) -> Tuple[List[Violation], List[Violation]]:
        """(active, suppressed) violations of the per-module rules
        for one module."""
        active, suppressed = self._split(module, [
            violation
            for rule in self.rules if rule.applies_to(module.relpath)
            for violation in rule.check(module)
        ])
        active.sort(key=_report_order)
        suppressed.sort(key=_report_order)
        return active, suppressed

    def _split(
        self, module: ModuleInfo, raw: List[Violation]
    ) -> Tuple[List[Violation], List[Violation]]:
        """Partition *raw* findings into (active, suppressed) by the
        module's justified suppressions; the suppression audit's own
        findings join the active ones."""
        active: List[Violation] = []
        suppressed: List[Violation] = []
        for violation in raw:
            supp = module.suppression_for(violation.rule, violation.line)
            if supp is not None and supp.justification:
                violation.justification = supp.justification
                suppressed.append(violation)
            else:
                active.append(violation)
        active.extend(self._audit_suppressions(module))
        return active, suppressed

    def _audit_suppressions(self, module: ModuleInfo) -> List[Violation]:
        """Malformed suppressions are violations in their own right —
        a silencer with no justification (or a typo'd rule name) is
        exactly the kind of quiet hole this tool exists to close."""
        found: List[Violation] = []
        for supp in module.suppressions.values():
            if not supp.rules:
                found.append(Violation(
                    SUPPRESSION_RULE, module.relpath, supp.line, 0,
                    "suppression names no rules",
                ))
                continue
            for rule_name in supp.rules:
                if rule_name not in self._known_rules:
                    found.append(Violation(
                        SUPPRESSION_RULE, module.relpath, supp.line, 0,
                        "suppression names unknown rule %r" % rule_name,
                    ))
            if not supp.justification:
                found.append(Violation(
                    SUPPRESSION_RULE, module.relpath, supp.line, 0,
                    "suppression requires a justification after `--`",
                ))
        return found

    # -- trees --------------------------------------------------------------

    def discover(self, paths: Iterable[str]) -> List[str]:
        """Python files under *paths* (directories walked
        recursively), each once however the arguments overlap."""
        import os

        files: Dict[str, None] = {}
        for path in paths:
            if os.path.isdir(path):
                found = sorted(
                    os.path.join(dirpath, filename)
                    for dirpath, dirnames, filenames in os.walk(path)
                    for filename in filenames
                    if filename.endswith(".py")
                    and "__pycache__" not in dirpath
                )
            else:
                found = [path]
            for filename in found:
                files.setdefault(os.path.normpath(filename))
        return list(files)

    def analyze_paths(self, paths: Iterable[str]) -> Report:
        """Run every rule over the trees/files in *paths* — the one
        way gupcheck runs.

        Each file is parsed once, the modules become one
        :class:`~repro.analysis.ir.project.Project` (kept on
        :attr:`Report.project` for the artefact writers), and every
        rule — per-module or whole-program — reports per module so
        the suppression filter and audit apply uniformly.
        """
        from repro.analysis.ir.project import Project

        files = self.discover(paths)
        modules: List[ModuleInfo] = []
        errors: List[Tuple[str, str]] = []
        for filename in files:
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    source = handle.read()
                modules.append(ModuleInfo.from_source(
                    source, _relpath(filename), filename
                ))
            except (OSError, SyntaxError, ValueError) as err:
                errors.append((filename, str(err)))

        project = Project(modules)
        report = Report(self.rules, project)
        report.files_scanned = len(files)
        report.errors = errors
        report.paths = {module.relpath: module.path for module in modules}
        for module in modules:
            active, suppressed = self._split(module, [
                violation
                for rule in self.rules
                if rule.applies_to(module.relpath)
                for violation in _run_rule(rule, project, module)
            ])
            report.violations.extend(active)
            report.suppressed.extend(suppressed)
        report.violations.sort(key=_report_order)
        report.suppressed.sort(key=_report_order)
        return report


def _report_order(violation: Violation) -> Tuple[str, int, int, str]:
    return (violation.path, violation.line, violation.col,
            violation.rule)


def _run_rule(
    rule: Rule, project: "Project", module: ModuleInfo
) -> List[Violation]:
    if isinstance(rule, ProjectRule):
        return rule.check_module(project, module)
    return rule.check(module)


#: Path components the relpath computation anchors on. ``repro`` is the
#: library; ``tests`` and ``benchmarks`` are scanned too (determinism
#: covers them).
_ANCHORS = ("repro", "tests", "benchmarks")


def _relpath(filename: str) -> str:
    """Package-relative posix path: everything from the last anchor
    component on (``src/repro/core/x.py`` -> ``repro/core/x.py``,
    ``tests/test_sync.py`` -> ``tests/test_sync.py``). Falls back to
    the posix-normalized input."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] in _ANCHORS:
            return "/".join(parts[index:])
    return "/".join(parts)


def check_source(
    rule: Rule, source: str, relpath: str = "repro/fixture.py"
) -> List[Violation]:
    """Run one *rule* over inline *source* — the fixture-test helper.

    Suppressions are honoured (suppressed findings are dropped), so a
    fixture can exercise the suppression path too; malformed
    suppressions are **not** audited here (that is
    :meth:`Analyzer.analyze_module`'s job). A :class:`ProjectRule`
    sees a one-module project."""
    from repro.analysis.ir.project import Project

    module = ModuleInfo.from_source(source, relpath)
    if not rule.applies_to(relpath):
        return []
    findings = []
    for violation in _run_rule(rule, Project([module]), module):
        supp = module.suppression_for(rule.name, violation.line)
        if supp is None or not supp.justification:
            findings.append(violation)
    return findings
