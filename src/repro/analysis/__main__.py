"""CLI for gupcheck: ``python -m repro.analysis [paths...]``.

One invocation is one analysis: every file under *paths* is parsed
once, every (selected) rule runs over the whole tree, and each
artefact flag is a *sink* of that one result —

* ``--json``            the report, on stdout;
* ``--sarif [PATH]``    the report as SARIF 2.1.0;
* ``--effects [PATH]``  the per-function effect / sans-io boundary map;
* ``--growth [PATH]``   the long-lived container inventory.

Sinks compose (each artefact is byte-identical to the one its flag
writes alone) and never change the exit code; ``-`` as PATH means
stdout, which at most one sink may own — the human-readable report is
printed only when none does, and per-artefact notes move to stderr.

Exit-code contract (stable for CI):

* ``0`` — clean: no active error-severity findings (warnings and
  suppressed findings are reported but do not gate);
* ``1`` — violations: at least one active error-severity finding
  (a tainted sans-io boundary and an unbounded container are the
  ``sans-io-purity`` / ``container-growth`` findings of the run);
* ``2`` — analysis error: unparseable files, unwritable artefact
  destinations, usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO, Callable, List, Optional, Tuple

from repro.analysis.effects_report import (
    EFFECTS_FILENAME, effects_payload,
)
from repro.analysis.framework import Analyzer, Report
from repro.analysis.growth_report import (
    GROWTH_FILENAME, growth_payload,
)
from repro.analysis.rules import default_rules
from repro.analysis.sarif import to_sarif_json

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
        help="emit a machine-readable JSON report on stdout",
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
        help="write the per-function effect / sans-io boundary map "
             "to PATH (default: %s; '-' for stdout)" % EFFECTS_FILENAME,
    )
    parser.add_argument(
        "--growth", nargs="?", const=GROWTH_FILENAME,
        default=None, metavar="PATH",
        help="write the long-lived container inventory to PATH "
             "(default: %s; '-' for stdout)" % GROWTH_FILENAME,
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list available rules and exit",
    )
    return parser


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


#: An artefact renderer: the run's report -> (file text, one-line
#: note for the human channel or None).
_Render = Callable[[Report], Tuple[str, Optional[str]]]


def _render_effects(report: Report) -> Tuple[str, Optional[str]]:
    payload = effects_payload(report.project)
    boundary = payload["boundary"]
    return json.dumps(payload, indent=2) + "\n", (
        "%d function(s), boundary %s" % (
            len(payload["functions"]),
            "clean" if boundary["clean"]
            else "%d violation(s)" % len(boundary["violations"]),
        )
    )


def _render_growth(report: Report) -> Tuple[str, Optional[str]]:
    payload = growth_payload(report.project)
    counts = payload["counts"]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", (
        "%d container(s): %d bounded, %d evicting, %d declared, "
        "%d unbounded" % (
            sum(counts.values()),
            counts["bounded"], counts["evicting"],
            counts["declared"], counts["unbounded"],
        )
    )


def _render_text(report: Report, out: IO[str]) -> None:
    for violation in report.violations:
        marker = (
            " (warning)" if violation.severity == "warning" else ""
        )
        out.write("%s%s\n" % (violation, marker))
    for path, message in report.errors:
        out.write("%s: [parse-error] %s\n" % (path, message))
    for violation in report.suppressed:
        out.write(
            "%s:%d: [%s] suppressed -- %s\n"
            % (violation.path, violation.line, violation.rule,
               violation.justification)
        )
    out.write(
        "gupcheck: %d file(s), %d violation(s) (%d warning(s)), "
        "%d suppressed — %s\n"
        % (
            report.files_scanned,
            len(report.violations),
            len(report.warnings),
            len(report.suppressed),
            "OK" if report.ok else "FAIL",
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse CLI options, run the analyzer once, feed every requested
    sink from that run, and return the exit code."""
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

    candidates: List[Tuple[str, Optional[str], str, _Render]] = [
        ("--json", "-" if options.as_json else None, "JSON report",
         lambda report: (report.to_json() + "\n", None)),
        ("--sarif", options.sarif, "SARIF log",
         lambda report: (to_sarif_json(report, rules), None)),
        ("--effects", options.effects, "effects map", _render_effects),
        ("--growth", options.growth, "growth inventory", _render_growth),
    ]
    sinks = [sink for sink in candidates if sink[1] is not None]
    on_stdout = [flag for flag, destination, _, _ in sinks
                 if destination == "-"]
    if len(on_stdout) > 1:
        parser.error(
            "%s would interleave on stdout — give all but one a PATH"
            % " and ".join(on_stdout)
        )

    try:
        report = Analyzer(rules).analyze_paths(options.paths)
        rendered = [
            (destination, what) + render(report)
            for _, destination, what, render in sinks
        ]
    except (OSError, RecursionError) as err:
        sys.stderr.write("gupcheck: analysis error: %s\n" % err)
        return EXIT_ERROR

    # Stdout carries either the human report or the one sink that
    # claimed it; the artefact notes follow the human channel.
    human = sys.stderr if on_stdout else sys.stdout
    if not on_stdout:
        _render_text(report, human)
    written = True
    for destination, what, text, note in rendered:
        if not _emit(destination, text, what):
            written = False
        elif note is not None:
            human.write("gupcheck: %s %s — %s\n" % (
                what,
                "(stdout)" if destination == "-" else destination,
                note,
            ))

    if report.errors or not written:
        return EXIT_ERROR
    return EXIT_CLEAN if not report.failing else EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
