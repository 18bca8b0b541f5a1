"""The repo-specific gupcheck rules (one module per rule).

Every rule sees one :class:`~repro.analysis.framework.ModuleInfo` at
a time.
"""

from __future__ import annotations

from typing import List

from repro.analysis.framework import Rule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionTotalityRule
from repro.analysis.rules.iter_order import IterOrderRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.sim_race import SimRaceRule

#: Rule classes in report order.
ALL_RULES = (
    DeterminismRule,
    LayeringRule,
    ExceptionTotalityRule,
    SimRaceRule,
    IterOrderRule,
)

__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "ExceptionTotalityRule",
    "IterOrderRule",
    "LayeringRule",
    "SimRaceRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every rule, in report order."""
    return [rule_class() for rule_class in ALL_RULES]
