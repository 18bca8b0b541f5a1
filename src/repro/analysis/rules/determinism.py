"""determinism — simulated code must not read wall-clock or shared RNG.

The simulator's measurements (E1–E16) are only trustworthy if two runs
with the same seed produce byte-identical traces. Anything inside
``simnet/``, ``core/`` or ``workloads/`` that consults the host's
wall-clock (``time.time()``, ``datetime.now()``) or the shared
module-level ``random`` state (``random.random()``, seeding hidden
global state) silently couples results to the machine and the import
order. Virtual time comes from the :class:`~repro.simnet.Simulator`
clock; randomness from an injected, seeded ``random.Random``.

Inside ``simnet/`` the rule also bans blocking: the discrete-event
engine advances a *virtual* clock and every event handler runs to
completion instantly in host time, so a real ``sleep`` stalls the
simulation without moving virtual time (latency belongs in
:meth:`Simulator.schedule` delays) and blocking I/O (files, sockets,
subprocesses) makes event timing depend on the host.  There the
blocking primitives (``sleep``, ``open``, ``input``) and the imports
that smuggle them in are findings too.

The rule also covers ``tests/`` and ``benchmarks/``: a test or a
benchmark that consults the wall-clock or shared RNG is flaky in
exactly the same way the simulated code would be.  Legitimate
wall-clock uses there (measuring the *harness's own* elapsed time)
carry a ``gupcheck: ignore[determinism]`` suppression with a
justification.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.framework import ModuleInfo, Rule, Violation
from repro.analysis.interproc.effects import reads_wall_clock

__all__ = ["DeterminismRule"]

#: The only member of the random module deterministic code may touch:
#: an instance seeded by the caller.
_RANDOM_ALLOWED = frozenset({"Random"})
#: Where the blocking bans below apply.
_SIMNET_PREFIX = "repro/simnet/"
#: Modules whose very import into simnet signals blocking intent.
_BLOCKING_MODULES = frozenset({
    "time", "socket", "subprocess", "threading", "multiprocessing",
    "requests", "urllib", "http", "asyncio", "select",
})
#: Bare-name calls that block.
_BLOCKING_NAME_CALLS = frozenset({"open", "input", "sleep"})


class DeterminismRule(Rule):
    """Bans wall-clock reads and module-level RNG in simulated code,
    and sleeps and blocking I/O inside simnet."""

    name = "determinism"
    description = (
        "simnet/core/workloads use the Simulator clock and injected "
        "seeded random.Random, never wall-clock time or module-level "
        "random state; simnet event handlers never sleep or block"
    )
    prefixes = (
        "repro/simnet/", "repro/core/", "repro/workloads/",
        "tests/", "benchmarks/",
    )

    def check(self, module: ModuleInfo) -> List[Violation]:
        simnet = module.relpath.startswith(_SIMNET_PREFIX)
        found: List[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._check_call(module, node, found)
                if simnet:
                    self._check_blocking_call(module, node, found)
            elif isinstance(node, ast.ImportFrom):
                self._check_import_from(module, node, found)
            if simnet and isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_blocking_import(module, node, found)
        return found

    def _check_call(self, module: ModuleInfo, node: ast.Call,
                    found: List[Violation]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if not isinstance(receiver, ast.Name):
            return
        if reads_wall_clock(receiver.id, func.attr):
            found.append(self.violation(
                module, node,
                "wall-clock read %s.%s() — use the Simulator's "
                "virtual clock (sim.now)" % (receiver.id, func.attr),
            ))
        elif receiver.id == "random" and func.attr not in _RANDOM_ALLOWED:
            found.append(self.violation(
                module, node,
                "module-level random.%s() — inject a seeded "
                "random.Random instance instead" % func.attr,
            ))

    def _check_import_from(self, module: ModuleInfo, node: ast.ImportFrom,
                           found: List[Violation]) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED:
                    found.append(self.violation(
                        module, node,
                        "`from random import %s` pulls shared RNG "
                        "state — inject a seeded random.Random"
                        % alias.name,
                    ))
        elif node.module == "time":
            for alias in node.names:
                if reads_wall_clock("time", alias.name) \
                        or alias.name == "sleep":
                    found.append(self.violation(
                        module, node,
                        "`from time import %s` imports a wall-clock "
                        "primitive into simulated code" % alias.name,
                    ))

    def _check_blocking_import(self, module: ModuleInfo, node: ast.stmt,
                               found: List[Violation]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _BLOCKING_MODULES:
                    found.append(self.violation(
                        module, node,
                        "blocking module `import %s` inside simnet "
                        "— simulated latency uses virtual time"
                        % alias.name,
                    ))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] in _BLOCKING_MODULES:
            found.append(self.violation(
                module, node,
                "blocking module `from %s import ...` inside "
                "simnet" % node.module,
            ))

    def _check_blocking_call(self, module: ModuleInfo, node: ast.Call,
                             found: List[Violation]) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_NAME_CALLS:
            found.append(self.violation(
                module, node,
                "blocking call %s() inside simnet — event handlers "
                "must return immediately" % func.id,
            ))
        elif isinstance(func, ast.Attribute) and func.attr == "sleep":
            found.append(self.violation(
                module, node,
                "blocking call .%s() inside simnet — model the "
                "delay with Simulator.schedule" % func.attr,
            ))
