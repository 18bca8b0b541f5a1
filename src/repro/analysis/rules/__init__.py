"""The repo-specific gupcheck rules (one module per rule).

Intra-module rules see one :class:`~repro.analysis.framework.ModuleInfo`
at a time; whole-program rules (``shield-egress``,
``handler-reentrancy``, ...) subclass
:class:`~repro.analysis.framework.ProjectRule` and run on the
project IR with interprocedural taint summaries.
"""

from __future__ import annotations

from typing import List

from repro.analysis.framework import Rule
from repro.analysis.rules.cache_scope import CacheKeyScopeRule
from repro.analysis.rules.container_growth import (
    ContainerGrowthRule,
)
from repro.analysis.rules.cursor_lifecycle import CursorLifecycleRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exceptions import ExceptionTotalityRule
from repro.analysis.rules.handler_reentrancy import (
    HandlerReentrancyRule,
)
from repro.analysis.rules.iter_order import IterOrderRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.memo_confinement import MemoConfinementRule
from repro.analysis.rules.sans_io import SansIoPurityRule
from repro.analysis.rules.shield_egress import ShieldEgressRule
from repro.analysis.rules.sim_race import SimRaceRule
from repro.analysis.rules.span_balance import SpanBalanceRule

#: Rule classes in report order.
ALL_RULES = (
    ShieldEgressRule,
    DeterminismRule,
    LayeringRule,
    ExceptionTotalityRule,
    CacheKeyScopeRule,
    SimRaceRule,
    IterOrderRule,
    HandlerReentrancyRule,
    SpanBalanceRule,
    CursorLifecycleRule,
    MemoConfinementRule,
    SansIoPurityRule,
    ContainerGrowthRule,
)

__all__ = [
    "ALL_RULES",
    "CacheKeyScopeRule",
    "ContainerGrowthRule",
    "CursorLifecycleRule",
    "DeterminismRule",
    "ExceptionTotalityRule",
    "HandlerReentrancyRule",
    "IterOrderRule",
    "LayeringRule",
    "MemoConfinementRule",
    "SansIoPurityRule",
    "ShieldEgressRule",
    "SimRaceRule",
    "SpanBalanceRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every rule, in report order."""
    return [rule_class() for rule_class in ALL_RULES]
