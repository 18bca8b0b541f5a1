"""gupcheck — GUPster-aware static analysis.

The GUPster promises that runtime tests cannot fully guard — *every*
profile read is mediated by the privacy shield, the simulator is
deterministic and replayable, layers do not reach around their
interfaces — are statically checkable. This package is a small,
reusable AST-visitor framework plus the repo-specific rules that
encode those invariants (DESIGN.md §4.2–4.3):

========================  ====================================================
rule                      invariant protected
========================  ====================================================
``shield-egress``         every egress serving a requester context reaches a
                          privacy-shield check first (whole-program):
                          interprocedural taint from every
                          store/adapter/cache/sync/``StoreGet`` source to
                          every return, send, bus-delivery and
                          foreign-write sink — the shield is the only
                          sanitizer
``determinism``           simulated components use the virtual clock and an
                          injected seeded ``random.Random`` — never wall-clock
                          time or the shared module-level ``random`` state;
                          simnet event handlers never sleep or block on I/O
``layering``              ``core``/``services`` speak to native stores only
                          through ``repro.adapters``
``exception-totality``    pxml parsers raise only GUP error types, and never
                          swallow them with bare/overbroad ``except``
``cache-key-scope``       component-cache reads/writes carry the requester
                          scope (regression guard for the PR 1 shield bypass)
``sim-race``              two callbacks scheduled at the same virtual
                          timestamp never mutate the same attribute
``iter-order``            unordered ``set`` iteration never feeds event
                          scheduling or result assembly (warning)
``handler-reentrancy``    scheduled callbacks never re-enter
                          ``Simulator.run/step/advance`` (whole-program)
========================  ====================================================

Run it over the source tree — one invocation parses every file once,
analyses the whole tree and writes every requested artefact from that
one result::

    PYTHONPATH=src python -m repro.analysis src/          # human output
    PYTHONPATH=src python -m repro.analysis --json src/   # machine output
    PYTHONPATH=src python -m repro.analysis src/ --sarif out.sarif \\
        --effects .gupcheck-effects.json --growth .gupcheck-growth.json

A violation can be suppressed — with a mandatory justification — by a
comment on (or immediately above) the offending line::

    time.time()  # gupcheck: ignore[determinism] -- wall-clock only in __repr__

Suppressions without a justification, or naming unknown rules, are
themselves violations.
"""

from repro.analysis.framework import (
    Analyzer,
    ModuleInfo,
    ProjectRule,
    Report,
    Rule,
    Violation,
    check_source,
)
from repro.analysis.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Analyzer",
    "ModuleInfo",
    "ProjectRule",
    "Report",
    "Rule",
    "Violation",
    "check_source",
    "default_rules",
]
