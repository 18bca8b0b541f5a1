"""gupcheck — GUPster-aware static analysis.

Some GUPster promises are statically checkable one module at a time:
the simulator is deterministic and replayable, layers do not reach
around their interfaces, parsers raise only GUP errors. This package
is a small, reusable AST-visitor framework plus the repo-specific
rules that encode those invariants (DESIGN.md §4.2–4.3):

========================  ====================================================
rule                      invariant protected
========================  ====================================================
``determinism``           simulated components use the virtual clock and an
                          injected seeded ``random.Random`` — never wall-clock
                          time or the shared module-level ``random`` state;
                          simnet event handlers never sleep or block on I/O
``layering``              ``core``/``services`` speak to native stores only
                          through ``repro.adapters``
``exception-totality``    pxml parsers raise only GUP error types, and never
                          swallow them with bare/overbroad ``except``
``sim-race``              two callbacks scheduled at the same virtual
                          timestamp never mutate the same attribute
``iter-order``            unordered ``set`` iteration never feeds event
                          scheduling or result assembly (warning)
========================  ====================================================

Two promises are tier-1 tests, not rules: every release of profile
data passes the privacy shield (the route, batch-equivalence, bus,
federation and sync tests, DESIGN.md §4.3), and the protocol core
never calls wall I/O or the simulated wire itself (the runtime
boundary guard ``tests/test_sansio_boundary.py``, DESIGN.md §4.7).

Four invariants are enforced by the code rather than by a rule: the
component cache requires a non-empty ``scope`` keyword on every
``get``/``get_stale``/``put``; the simulator raises ``RuntimeError``
when ``step``/``run`` is called from inside a dispatched callback;
``Trace.span`` opens its span when called and the simnet driver
raises ``RuntimeError`` when a program returns with a span still open;
bus listeners are handed records only, so replay cursors and shield
decisions never leave the bus or the delivery that made them.
Container growth is checked at runtime, not by a rule: the soak in
``tests/test_soak.py`` fails when a container of the served world
grows with traffic (DESIGN.md §4.8).

Run it over the source tree — one invocation parses every file once
and writes every requested artefact from that one result::

    PYTHONPATH=src python -m repro.analysis src/          # human output
    PYTHONPATH=src python -m repro.analysis --json src/   # machine output
    PYTHONPATH=src python -m repro.analysis src/ --sarif out.sarif

A violation can be suppressed — with a mandatory justification — by a
comment on (or immediately above) the offending line::

    time.time()  # gupcheck: ignore[determinism] -- wall-clock only in __repr__

Suppressions without a justification, or naming unknown rules, are
themselves violations.
"""

from repro.analysis.framework import (
    Analyzer,
    ModuleInfo,
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
    "Report",
    "Rule",
    "Violation",
    "check_source",
    "default_rules",
]
