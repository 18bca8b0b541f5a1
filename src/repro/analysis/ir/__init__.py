"""gupcheck IR: whole-program view of the source tree.

``repro.analysis.ir`` turns parsed modules into a project-level
intermediate representation:

* :mod:`~repro.analysis.ir.symbols` — per-module symbol tables
  (functions, classes with base/attribute typing, import aliases);
* :mod:`~repro.analysis.ir.project` — the
  :class:`~repro.analysis.ir.project.Project`: dotted-name module map,
  import graph with SCC condensation, and the project class index
  (bases, subclasses, interface dispatch);
* :mod:`~repro.analysis.ir.callgraph` — call-site resolution (module
  functions, self/typed-receiver methods, adapter-interface dispatch
  over ``adapters/base`` subclasses) and the function-level call graph.

The interprocedural engines in :mod:`repro.analysis.interproc` run on
top of this IR.
"""

from __future__ import annotations

from repro.analysis.ir.project import Project, SourceModule

__all__ = ["Project", "SourceModule"]
