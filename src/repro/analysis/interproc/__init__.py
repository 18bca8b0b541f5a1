"""Summary-based interprocedural engines over the gupcheck IR.

:mod:`~repro.analysis.interproc.summaries` defines the per-function
:class:`~repro.analysis.interproc.summaries.Summary` — a small
abstraction of one function: which labels (the
profile-data source ``src`` or a parameter ``p<i>``) may reach its
return value unsanitized, whether it *is* a shield sanitizer, and
whether it transitively re-enters the simulator loop.

:mod:`~repro.analysis.interproc.taint` runs the fixpoint: call-graph
SCCs are processed callees-first, each function is evaluated against
its callees' summaries, and cycles iterate until the (monotone)
summaries stabilize.
"""

from __future__ import annotations

from repro.analysis.interproc.summaries import Summary
from repro.analysis.interproc.taint import TaintEngine

__all__ = ["Summary", "TaintEngine"]
