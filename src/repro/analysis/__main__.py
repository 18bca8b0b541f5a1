"""CLI for gupcheck: ``python -m repro.analysis [paths...]``.

Exit-code contract (stable for CI):

* ``0`` — clean: no active error-severity findings (warnings,
  suppressed and baselined findings are reported but do not gate);
* ``1`` — violations: at least one active error-severity finding;
* ``2`` — analysis error: unparseable files, unreadable
  baseline/SARIF destinations, usage errors.

Incremental runs are on by default: results are keyed on content
hashes in ``.gupcheck-cache.json`` (``--no-cache`` / ``--cache PATH``
to control).  ``--changed-only`` narrows the scan to files changed
relative to a git ref; ``--stats`` prints run-shape counters
(modules, SCCs, cache hit-rate, wall time) to stderr.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from typing import IO, List, Optional

from repro.analysis.baseline import (
    BASELINE_FILENAME, load_baseline, write_baseline,
)
from repro.analysis.cache import (
    AnalysisCache, CACHE_FILENAME, rules_fingerprint,
)
from repro.analysis.effects_report import EFFECTS_FILENAME
from repro.analysis.framework import Analyzer, Report
from repro.analysis.growth_report import GROWTH_FILENAME
from repro.analysis.rules import default_rules

#: Exit codes (see module docstring).
EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gupcheck: GUPster-aware static analysis "
                    "(whole-program privacy-egress taint, simulator "
                    "soundness, determinism and layering lints)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report",
    )
    parser.add_argument(
        "--sarif", nargs="?", const="-", default=None,
        metavar="PATH",
        help="emit a SARIF 2.1.0 log to PATH (stdout when no PATH)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="NAME[,NAME...]",
        help="comma-separated subset of rules to run",
    )
    parser.add_argument(
        "--effects", nargs="?", const=EFFECTS_FILENAME,
        default=None, metavar="PATH",
        help="infer per-function effects and write the sans-io "
             "boundary map to PATH (default: %s; '-' for stdout), "
             "then exit — 1 when the boundary carries transport/"
             "wall-io" % EFFECTS_FILENAME,
    )
    parser.add_argument(
        "--growth", nargs="?", const=GROWTH_FILENAME,
        default=None, metavar="PATH",
        help="run the resource-bound analysis and write the "
             "long-lived container inventory to PATH (default: %s; "
             "'-' for stdout), then exit — 1 on unbounded verdicts "
             "or declared-bound audit findings not accepted by the "
             "baseline" % GROWTH_FILENAME,
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list available rules and exit",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print run-shape counters (modules, SCCs, cache "
             "hit-rate, wall time) to stderr",
    )
    parser.add_argument(
        "--changed-only", nargs="?", const="HEAD", default=None,
        metavar="GIT_REF",
        help="only scan files changed relative to GIT_REF "
             "(default HEAD); clean exit when nothing changed",
    )
    parser.add_argument(
        "--cache", default=CACHE_FILENAME, metavar="PATH",
        help="incremental cache file (default: %s)" % CACHE_FILENAME,
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="accept findings recorded in a baseline file "
             "(default: %s when present)" % BASELINE_FILENAME,
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept every current finding into the baseline file "
             "and exit clean",
    )
    return parser


def _changed_files(ref: str, paths: List[str]) -> Optional[List[str]]:
    """Python files changed vs *ref* (staged+unstaged+committed),
    restricted to *paths*; None when git is unavailable."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", "--diff-filter=d", ref,
             "--"] + list(paths),
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return sorted(
        line.strip() for line in proc.stdout.splitlines()
        if line.strip().endswith(".py")
    )


def _emit(destination: str, text: str, what: str) -> bool:
    """Write *text* to stdout (``-``) or to the file *destination*;
    False, after saying so on stderr, when the file cannot be
    written."""
    if destination == "-":
        sys.stdout.write(text)
        return True
    try:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        sys.stderr.write(
            "gupcheck: could not write %s %s: %s\n"
            % (what, destination, err)
        )
        return False
    return True


def _run_effects(paths: List[str], destination: str) -> int:
    """``--effects``: parse *paths*, run the effect fixpoint, and
    write the boundary map (no rules, no cache — the map must always
    reflect the whole tree's transitive effects)."""
    import json

    from repro.analysis.effects_report import effects_payload
    from repro.analysis.framework import ModuleInfo, _relpath

    analyzer = Analyzer([])
    modules = []
    parse_failed = False
    for filename in analyzer.discover(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(ModuleInfo.from_source(
                source, _relpath(filename), filename
            ))
        except (OSError, SyntaxError, ValueError) as err:
            sys.stderr.write(
                "gupcheck: %s: [parse-error] %s\n" % (filename, err)
            )
            parse_failed = True
    if not modules:
        sys.stderr.write("gupcheck: --effects found no modules\n")
        return EXIT_ERROR

    payload = effects_payload(modules)
    text = json.dumps(payload, indent=2) + "\n"
    if not _emit(destination, text, "effects map"):
        return EXIT_ERROR
    if destination != "-":
        boundary = payload["boundary"]
        sys.stdout.write(
            "gupcheck: effects map %s written (%d function(s), "
            "boundary %s)\n"
            % (
                destination, len(payload["functions"]),
                "clean" if boundary["clean"]
                else "%d violation(s)" % len(boundary["violations"]),
            )
        )
    if parse_failed:
        return EXIT_ERROR
    return (
        EXIT_CLEAN if payload["boundary"]["clean"]
        else EXIT_VIOLATIONS
    )


def _run_growth(
    paths: List[str],
    destination: str,
    baseline_path: str,
    use_baseline: bool,
) -> int:
    """``--growth``: parse *paths*, run the resource-bound engine,
    write the container inventory, and gate on unbounded verdicts
    (no rules, no cache — verdict evidence crosses import cones, so
    the inventory must always reflect the whole tree)."""
    import json

    from repro.analysis.framework import ModuleInfo, _relpath
    from repro.analysis.growth_report import growth_payload_for
    from repro.analysis.ir.project import Project
    from repro.analysis.rules.container_growth import (
        ContainerGrowthRule,
    )

    analyzer = Analyzer([])
    modules = []
    parse_failed = False
    for filename in analyzer.discover(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(ModuleInfo.from_source(
                source, _relpath(filename), filename
            ))
        except (OSError, SyntaxError, ValueError) as err:
            sys.stderr.write(
                "gupcheck: %s: [parse-error] %s\n" % (filename, err)
            )
            parse_failed = True
    if not modules:
        sys.stderr.write("gupcheck: --growth found no modules\n")
        return EXIT_ERROR

    project = Project(modules)
    payload = growth_payload_for(project)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not _emit(destination, text, "growth inventory"):
        return EXIT_ERROR

    failing = ContainerGrowthRule().check_project(project)
    if use_baseline:
        accepted = set(load_baseline(baseline_path))
        failing = [
            violation for violation in failing
            if violation.fingerprint() not in accepted
        ]
    for violation in failing:
        sys.stderr.write("%s\n" % violation)
    counts = payload["counts"]
    # With ``-`` the JSON owns stdout — the human summary moves to
    # stderr so the stream stays machine-parseable.
    summary_stream = sys.stderr if destination == "-" else sys.stdout
    summary_stream.write(
        "gupcheck: growth inventory %s — %d container(s): "
        "%d bounded, %d evicting, %d declared, %d unbounded"
        " (%d gating finding(s))\n"
        % (
            destination if destination != "-" else "(stdout)",
            sum(counts.values()),
            counts["bounded"], counts["evicting"],
            counts["declared"], counts["unbounded"],
            len(failing),
        )
    )
    if parse_failed:
        return EXIT_ERROR
    return EXIT_CLEAN if not failing else EXIT_VIOLATIONS


def _render_text(report: Report, out: IO[str]) -> None:
    for violation in report.violations:
        marker = (
            " (warning)" if violation.severity == "warning" else ""
        )
        out.write("%s%s\n" % (violation, marker))
    for path, message in report.errors:
        out.write("%s: [parse-error] %s\n" % (path, message))
    for violation in report.baselined:
        out.write(
            "%s:%d: [%s] baselined\n"
            % (violation.path, violation.line, violation.rule)
        )
    for violation in report.suppressed:
        out.write(
            "%s:%d: [%s] suppressed -- %s\n"
            % (violation.path, violation.line, violation.rule,
               violation.justification)
        )
    out.write(
        "gupcheck: %d file(s), %d violation(s) (%d warning(s)), "
        "%d baselined, %d suppressed — %s\n"
        % (
            report.files_scanned,
            len(report.violations),
            len(report.warnings),
            len(report.baselined),
            len(report.suppressed),
            "OK" if report.ok else "FAIL",
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse CLI options, run the analyzer, and return the exit code."""
    parser = _build_parser()
    options = parser.parse_args(argv)

    rules = default_rules()
    if options.list_rules:
        for rule in rules:
            sys.stdout.write(
                "%-20s [%s] %s\n"
                % (rule.name, rule.severity, rule.description)
            )
        return EXIT_CLEAN
    if options.rules:
        wanted = {name.strip() for name in options.rules.split(",")
                  if name.strip()}
        unknown = wanted - {rule.name for rule in rules}
        if unknown:
            sys.stderr.write(
                "gupcheck: unknown rule(s): %s\n"
                % ", ".join(sorted(unknown))
            )
            return EXIT_ERROR
        rules = [rule for rule in rules if rule.name in wanted]

    if options.effects is not None:
        return _run_effects(list(options.paths), options.effects)
    if options.growth is not None:
        return _run_growth(
            list(options.paths), options.growth,
            options.baseline or BASELINE_FILENAME,
            not options.no_baseline,
        )

    paths = list(options.paths)
    if options.changed_only is not None:
        changed = _changed_files(options.changed_only, paths)
        if changed is None:
            sys.stderr.write(
                "gupcheck: --changed-only requires git; "
                "falling back to a full scan\n"
            )
        elif not changed:
            sys.stdout.write(
                "gupcheck: no python files changed vs %s — OK\n"
                % options.changed_only
            )
            return EXIT_CLEAN
        else:
            paths = changed

    cache: Optional[AnalysisCache] = None
    if not options.no_cache:
        cache = AnalysisCache.load(
            options.cache, rules_fingerprint(rules)
        )

    analyzer = Analyzer(rules)
    try:
        report = analyzer.analyze_paths(
            paths, cache=cache,
            collect_stats=options.stats,
        )
    except (OSError, RecursionError) as err:
        sys.stderr.write("gupcheck: analysis error: %s\n" % err)
        return EXIT_ERROR

    if cache is not None:
        try:
            cache.save(options.cache)
        except OSError as err:
            sys.stderr.write(
                "gupcheck: could not write cache %s: %s\n"
                % (options.cache, err)
            )

    baseline_path = options.baseline or BASELINE_FILENAME
    if options.write_baseline:
        try:
            count = write_baseline(baseline_path, report)
        except OSError as err:
            sys.stderr.write(
                "gupcheck: could not write baseline %s: %s\n"
                % (baseline_path, err)
            )
            return EXIT_ERROR
        sys.stdout.write(
            "gupcheck: baseline %s written (%d finding(s))\n"
            % (baseline_path, count)
        )
        return EXIT_CLEAN
    if not options.no_baseline:
        report.apply_baseline(load_baseline(baseline_path))

    if options.sarif is not None:
        from repro.analysis.sarif import to_sarif_json

        if not _emit(
            options.sarif, to_sarif_json(report, rules), "SARIF"
        ):
            return EXIT_ERROR

    if options.as_json:
        sys.stdout.write(report.to_json() + "\n")
    elif options.sarif != "-":
        _render_text(report, sys.stdout)

    if options.stats and report.stats is not None:
        sys.stderr.write(report.stats.render() + "\n")

    if report.errors:
        return EXIT_ERROR
    return EXIT_CLEAN if not report.failing else EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
