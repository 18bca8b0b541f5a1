"""SARIF 2.1.0 export for CI annotations.

Serializes a gupcheck :class:`~repro.analysis.framework.Report` as a
Static Analysis Results Interchange Format log so GitHub code
scanning renders findings inline on PRs.  Active violations become
plain results; in-source-suppressed findings are emitted with a
``suppressions`` entry so the history stays visible without
re-alerting.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.framework import (
    Report, Rule, SUPPRESSION_RULE, Violation,
)

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "to_sarif", "to_sarif_json"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

#: Major-bumped with the analysis engine: 4.x adds the
#: interprocedural resource-bound analysis (container-growth, the
#: verdict inventory and the declared-bound contract surface); 3.x
#: added the CFG/typestate rules and effect inference. 4.1 changes
#: rule ids: the two shield rules are one ``shield-egress``.
_TOOL_VERSION = "4.1.0"
_FINGERPRINT_KEY = "gupcheckFingerprint/v1"


def _rule_metadata(rules: Sequence[Rule]) -> List[Dict[str, Any]]:
    metadata: List[Dict[str, Any]] = []
    for rule in rules:
        metadata.append({
            "id": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {
                "level": rule.severity,
            },
        })
    metadata.append({
        "id": SUPPRESSION_RULE,
        "shortDescription": {
            "text": "suppression comments must name known rules "
                    "and carry a justification",
        },
        "defaultConfiguration": {"level": "error"},
    })
    return metadata


def _result(
    violation: Violation,
    rule_index: Dict[str, int],
    paths: Dict[str, str],
    suppression: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    uri = paths.get(violation.path, violation.path)
    uri = os.path.relpath(uri).replace(os.sep, "/")
    result: Dict[str, Any] = {
        "ruleId": violation.rule,
        "level": violation.severity,
        "message": {"text": violation.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": {
                    "startLine": max(violation.line, 1),
                    "startColumn": violation.col + 1,
                },
            },
        }],
        "partialFingerprints": {
            _FINGERPRINT_KEY: violation.fingerprint(),
        },
    }
    if violation.rule in rule_index:
        result["ruleIndex"] = rule_index[violation.rule]
    if suppression is not None:
        result["suppressions"] = [suppression]
    return result


def to_sarif(
    report: Report, rules: Optional[Sequence[Rule]] = None
) -> Dict[str, Any]:
    """SARIF 2.1.0 log (as a dict) for *report*."""
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    metadata = _rule_metadata(rules)
    rule_index = {
        entry["id"]: position
        for position, entry in enumerate(metadata)
    }
    results: List[Dict[str, Any]] = []
    for violation in report.violations:
        results.append(
            _result(violation, rule_index, report.paths)
        )
    for violation in report.suppressed:
        results.append(_result(
            violation, rule_index, report.paths,
            suppression={
                "kind": "inSource",
                "justification": violation.justification or "",
            },
        ))
    run: Dict[str, Any] = {
        "tool": {
            "driver": {
                "name": "gupcheck",
                "version": _TOOL_VERSION,
                "informationUri": (
                    "https://example.invalid/gupcheck"
                ),
                "rules": metadata,
            },
        },
        "results": results,
        "columnKind": "utf16CodeUnits",
    }
    if report.errors:
        run["invocations"] = [{
            "executionSuccessful": False,
            "toolExecutionNotifications": [
                {
                    "level": "error",
                    "message": {
                        "text": "%s: %s" % (path, message),
                    },
                }
                for path, message in report.errors
            ],
        }]
    else:
        run["invocations"] = [{"executionSuccessful": True}]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def to_sarif_json(
    report: Report, rules: Optional[Sequence[Rule]] = None
) -> str:
    """The SARIF log as pretty-printed JSON text."""
    return json.dumps(
        to_sarif(report, rules), indent=2, sort_keys=True
    ) + "\n"
