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
    from repro.analysis.cache import AnalysisCache
    from repro.analysis.ir.project import Project

__all__ = [
    "Analyzer",
    "AnalysisStats",
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
        """Location-independent identity used by the baseline file and
        SARIF ``partialFingerprints``: line numbers shift on unrelated
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

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Violation":
        """Inverse of :meth:`to_dict` (used by the incremental cache)."""
        return cls(
            str(data["rule"]),
            str(data["path"]),
            int(data["line"]),       # type: ignore[arg-type]
            int(data["col"]),        # type: ignore[arg-type]
            str(data["message"]),
            severity=str(data.get("severity", "error")),
        )

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
                 "suppressions", "sha")

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
        #: Content hash — the incremental cache's identity for this
        #: module's *intra*-module analysis results.
        self.sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
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
    #: Uncacheable rules re-run on every module each analysis: their
    #: findings' evidence can live outside the module's own (deep)
    #: content hash, so replaying stored results would be unsound.
    cacheable = True

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
    :meth:`check_module`, which is the unit the incremental cache can
    skip: a module whose *deep* content hash (own source + transitive
    import closure + project interface fingerprint) is unchanged gets
    its previous findings replayed instead of re-analysis.
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


class AnalysisStats:
    """Run-shape counters for ``--stats`` (and the E17 benchmark)."""

    __slots__ = ("modules_total", "modules_analyzed", "cache_hits",
                 "import_sccs", "call_sccs", "functions",
                 "summaries_computed", "wall_ms")

    def __init__(self) -> None:
        self.modules_total = 0
        #: Modules whose rules/summaries were actually (re)computed.
        self.modules_analyzed = 0
        #: Modules fully replayed from the incremental cache.
        self.cache_hits = 0
        self.import_sccs = 0
        self.call_sccs = 0
        self.functions = 0
        self.summaries_computed = 0
        self.wall_ms = 0.0

    @property
    def cache_hit_rate(self) -> float:
        if not self.modules_total:
            return 0.0
        return self.cache_hits / float(self.modules_total)

    def to_dict(self) -> Dict[str, object]:
        return {
            "modules_total": self.modules_total,
            "modules_analyzed": self.modules_analyzed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "import_sccs": self.import_sccs,
            "call_sccs": self.call_sccs,
            "functions": self.functions,
            "summaries_computed": self.summaries_computed,
            "wall_ms": round(self.wall_ms, 2),
        }

    def render(self) -> str:
        return (
            "gupcheck stats: %d/%d module(s) analyzed, %d cache hit(s) "
            "(%.0f%%), %d import SCC(s), %d call SCC(s), %d function(s), "
            "%d summaries computed, %.1f ms"
            % (self.modules_analyzed, self.modules_total,
               self.cache_hits, 100.0 * self.cache_hit_rate,
               self.import_sccs, self.call_sccs, self.functions,
               self.summaries_computed, self.wall_ms)
        )


class Report:
    """Aggregated result of an analysis run."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rule_names = [rule.name for rule in rules]
        self.files_scanned = 0
        #: Active violations (error-severity ones fail the analysis).
        self.violations: List[Violation] = []
        #: Violations silenced by a justified suppression comment.
        self.suppressed: List[Violation] = []
        #: Known findings accepted into the baseline file (reported,
        #: never gating — the gradual-adoption ratchet).
        self.baselined: List[Violation] = []
        #: (path, message) pairs for files that could not be parsed.
        self.errors: List[Tuple[str, str]] = []
        #: relpath -> filesystem path, for SARIF artifact URIs.
        self.paths: Dict[str, str] = {}
        #: Populated when the analyzer is asked to collect stats.
        self.stats: Optional[AnalysisStats] = None

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

    def apply_baseline(self, fingerprints: Iterable[str]) -> None:
        """Move active violations whose fingerprint is accepted by the
        baseline into :attr:`baselined`."""
        accepted = set(fingerprints)
        keep: List[Violation] = []
        for violation in self.violations:
            if violation.fingerprint() in accepted:
                self.baselined.append(violation)
            else:
                keep.append(violation)
        self.violations = keep

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "gupcheck": 2,
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules": list(self.rule_names),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "baselined": [v.to_dict() for v in self.baselined],
            "errors": [
                {"path": path, "message": message}
                for path, message in self.errors
            ],
        }
        if self.stats is not None:
            data["stats"] = self.stats.to_dict()
        return data

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
        """(active, suppressed) violations for one module."""
        active: List[Violation] = []
        suppressed: List[Violation] = []
        for rule in self.rules:
            if not rule.applies_to(module.relpath):
                continue
            for violation in rule.check(module):
                supp = module.suppression_for(rule.name, violation.line)
                if supp is not None and supp.justification:
                    violation.justification = supp.justification
                    suppressed.append(violation)
                else:
                    active.append(violation)
        active.extend(self._audit_suppressions(module))
        active.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
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
        """Python files under *paths* (directories walked recursively)."""
        import os

        files: List[str] = []
        for path in paths:
            if os.path.isdir(path):
                files.extend(sorted(
                    os.path.join(dirpath, filename)
                    for dirpath, dirnames, filenames in os.walk(path)
                    for filename in filenames
                    if filename.endswith(".py")
                    and "__pycache__" not in dirpath
                ))
            else:
                files.append(path)
        return files

    def analyze_paths(
        self,
        paths: Iterable[str],
        cache: Optional["AnalysisCache"] = None,
        collect_stats: bool = False,
    ) -> Report:
        """Run every rule over the trees/files in *paths*.

        Two phases: per-module rules first (cacheable on each module's
        own content hash), then whole-program :class:`ProjectRule`\\ s
        over the project IR (cacheable on each module's *deep* hash —
        own content + transitive import closure + the project interface
        fingerprint). With *cache* set, unchanged modules replay their
        stored findings instead of being re-analyzed.
        """
        import time

        start = time.perf_counter()
        report = Report(self.rules)
        if collect_stats or cache is not None:
            report.stats = AnalysisStats()
        stats = report.stats

        modules: List[ModuleInfo] = []
        for filename in self.discover(paths):
            report.files_scanned += 1
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    source = handle.read()
                module = ModuleInfo.from_source(
                    source, _relpath(filename), filename
                )
            except (OSError, SyntaxError, ValueError) as err:
                report.errors.append((filename, str(err)))
                continue
            modules.append(module)
            report.paths[module.relpath] = filename

        module_rules = [
            rule for rule in self.rules
            if not isinstance(rule, ProjectRule)
        ]
        project_rules = [
            rule for rule in self.rules if isinstance(rule, ProjectRule)
        ]
        analyzed: set = set()
        raw_by_module: Dict[str, List[Violation]] = {}

        # Phase 1: intra-module rules (keyed on each module's own sha).
        for module in modules:
            cached = (
                cache.module_results(module.relpath, module.sha)
                if cache is not None else None
            )
            if cached is not None:
                raw = cached
            else:
                raw = []
                for rule in module_rules:
                    if rule.applies_to(module.relpath):
                        raw.extend(rule.check(module))
                analyzed.add(module.relpath)
                if cache is not None:
                    cache.store_module_results(
                        module.relpath, module.sha, raw
                    )
            raw_by_module[module.relpath] = raw

        # Phase 2: whole-program rules over the project IR.
        if project_rules and modules:
            self._run_project_rules(
                modules, project_rules, raw_by_module, cache, analyzed,
                stats,
            )

        # Suppression filtering + audit, uniformly over both phases.
        for module in modules:
            active: List[Violation] = []
            suppressed: List[Violation] = []
            for violation in raw_by_module.get(module.relpath, []):
                supp = module.suppression_for(
                    violation.rule, violation.line
                )
                if supp is not None and supp.justification:
                    violation.justification = supp.justification
                    suppressed.append(violation)
                else:
                    active.append(violation)
            active.extend(self._audit_suppressions(module))
            report.violations.extend(active)
            report.suppressed.extend(suppressed)

        report.violations.sort(
            key=lambda v: (v.path, v.line, v.col, v.rule)
        )
        report.suppressed.sort(
            key=lambda v: (v.path, v.line, v.col, v.rule)
        )
        if stats is not None:
            stats.modules_total = len(modules)
            stats.modules_analyzed = len(analyzed)
            stats.cache_hits = len(modules) - len(analyzed)
            stats.wall_ms = (time.perf_counter() - start) * 1000.0
        return report

    def _run_project_rules(
        self,
        modules: List[ModuleInfo],
        project_rules: Sequence["ProjectRule"],
        raw_by_module: Dict[str, List[Violation]],
        cache: Optional["AnalysisCache"],
        analyzed: set,
        stats: Optional[AnalysisStats],
    ) -> None:
        from repro.analysis.ir.project import Project

        project = Project(modules)
        cacheable_rules = [r for r in project_rules if r.cacheable]
        global_rules = [r for r in project_rules if not r.cacheable]
        dirty: List[ModuleInfo] = []
        for module in modules:
            deep = project.deep_sha(module.relpath)
            cached = (
                cache.project_results(module.relpath, deep)
                if cache is not None else None
            )
            if cached is not None:
                violations, summaries = cached
                project.taint.preload(summaries)
                raw_by_module[module.relpath].extend(violations)
            else:
                dirty.append(module)
        project.taint.compute(
            [module.relpath for module in dirty]
        )
        for module in dirty:
            violations: List[Violation] = []
            for rule in cacheable_rules:
                if rule.applies_to(module.relpath):
                    violations.extend(
                        rule.check_module(project, module)
                    )
            raw_by_module[module.relpath].extend(violations)
            analyzed.add(module.relpath)
            if cache is not None:
                cache.store_project_results(
                    module.relpath,
                    project.deep_sha(module.relpath),
                    violations,
                    project.taint.summaries_for(module.relpath),
                )
        # Uncacheable rules (whole-program verdicts whose evidence
        # crosses import cones) re-run over every module, and their
        # findings are never stored or replayed.  They do not count
        # as "analyzed" — the incremental contract (warm runs replay
        # everything cacheable) is unchanged.
        for module in modules:
            for rule in global_rules:
                if rule.applies_to(module.relpath):
                    raw_by_module[module.relpath].extend(
                        rule.check_module(project, module)
                    )
        if stats is not None:
            stats.import_sccs = len(project.import_sccs)
            stats.call_sccs = project.taint.call_scc_count
            stats.functions = project.function_count
            stats.summaries_computed = (
                project.taint.summaries_computed
            )


#: Path components the relpath computation anchors on. ``repro`` is the
#: library; ``tests`` and ``benchmarks`` joined the scanned surface in
#: PR 3 (determinism + cache-key-scope coverage there).
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
    module = ModuleInfo.from_source(source, relpath)
    findings = []
    if rule.applies_to(relpath):
        if isinstance(rule, ProjectRule):
            from repro.analysis.ir.project import Project

            project = Project([module])
            project.taint.compute([relpath])
            raw = rule.check_module(project, module)
        else:
            raw = rule.check(module)
        for violation in raw:
            supp = module.suppression_for(rule.name, violation.line)
            if supp is not None and supp.justification:
                continue
            findings.append(violation)
    return findings
