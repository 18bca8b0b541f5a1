"""The effect lattice and the sans-io boundary axioms.

Every project function gets a computed **effect**, the join over
everything its body (nested ``def`` closures included — deferred
code is still this function's lexical responsibility) may do::

    pure  <  virtual-time  <  transport  <  wall-io

* ``pure`` — computes on its arguments; no clocks, no wire.
* ``virtual-time`` — touches the simulated clock or the Trace cost
  ledger (``sim.now``, ``sim.schedule``, ``trace.hop`` …).  This is
  the I/O-*intent* layer: code here records what I/O would cost
  without performing any.
* ``transport`` — samples the simulated wire itself
  (``network.sample_hop``, fault injection): exactly the code the
  asyncio wire driver (``repro.serve.transport``) replaces.
* ``wall-io`` — real-world I/O (files, sockets, wall clocks).  The
  simulation must never reach it; CLIs and benches may.

**Axioms** draw the boundary the propagation cannot see past:
everything under ``repro/simnet/`` is the harness, so its internals
are classified by decree rather than by body — ``Network``'s
hop sampling and ``simnet/faults.py`` (``FaultState``, the fault
surface a Network inherits, and ``FaultSchedule``) are
``transport``; the rest (Simulator, Trace, spans, bookkeeping)
is ``virtual-time``.  Without the Trace axiom the whole query engine
would collapse into ``transport`` merely for *charging* the cost
ledger (``Trace.hop`` internally samples the wire) — the ledger is
the intent abstraction both drivers share, so it anchors the
``virtual-time`` tier.

**Propagation** is callee-joining over resolved calls, deps-first
over call SCCs like every other summary bit.  Two deliberate
under-approximations keep the map honest rather than vacuous:
passing a callable (``sim.schedule(delay, fn)``) does *not* import
``fn``'s effect — the deferred work is attributed to the frame that
lexically contains it — and unresolved external calls default to
``pure`` unless an intrinsic pattern (``open``, ``time.time``,
``*.sample_hop`` …) recognizes them.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Tuple

from repro.analysis.ir.symbols import FunctionInfo, dotted_ref

__all__ = [
    "EFFECTS",
    "EFFECT_PURE",
    "EFFECT_TRANSPORT",
    "EFFECT_VIRTUAL_TIME",
    "EFFECT_WALL_IO",
    "WALL_CLOCK_CALLS",
    "axiom_effect",
    "intrinsic_call_effect",
    "intrinsic_read_effect",
    "join_effects",
    "reads_wall_clock",
]

EFFECT_PURE = "pure"
EFFECT_VIRTUAL_TIME = "virtual-time"
EFFECT_TRANSPORT = "transport"
EFFECT_WALL_IO = "wall-io"

#: The lattice, bottom to top; join is max rank.
EFFECTS: Tuple[str, ...] = (
    EFFECT_PURE, EFFECT_VIRTUAL_TIME, EFFECT_TRANSPORT,
    EFFECT_WALL_IO,
)

_RANK = {effect: rank for rank, effect in enumerate(EFFECTS)}


def join_effects(left: str, right: str) -> str:
    """Least upper bound of two effects."""
    return left if _RANK[left] >= _RANK[right] else right


# -- axioms ----------------------------------------------------------------

#: ``Network`` methods that touch the simulated wire: sampling a hop
#: consumes deterministic randomness, and ``fail``/``restore`` are its
#: two overrides of the fault surface.  The surface itself is one
#: class, ``FaultState``, decreed with its module (``_FAULTS_MODULE``);
#: everything else on Network is topology bookkeeping.
_NETWORK_TRANSPORT: FrozenSet[str] = frozenset({
    "sample_hop", "fail", "restore",
})

_SIMNET_PREFIX = "repro/simnet/"
_FAULTS_MODULE = "repro/simnet/faults.py"


def axiom_effect(fn: FunctionInfo) -> Optional[str]:
    """Decreed effect for harness functions, ``None`` elsewhere."""
    if not fn.relpath.startswith(_SIMNET_PREFIX):
        return None
    if fn.relpath == _FAULTS_MODULE:
        return EFFECT_TRANSPORT
    if fn.class_name == "Network" and fn.name in _NETWORK_TRANSPORT:
        return EFFECT_TRANSPORT
    return EFFECT_VIRTUAL_TIME


# -- intrinsics for unresolved calls ---------------------------------------

#: Bare names that perform real I/O wherever they appear.
_WALL_NAMES: FrozenSet[str] = frozenset({"open", "print", "input"})

#: ``<receiver>.<attr>`` calls that read the host's wall clock, keyed
#: by the receiver's last dotted segment — the one vocabulary the
#: effect map and the ``determinism`` rule share.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})


def reads_wall_clock(receiver: str, attr: str) -> bool:
    """Is ``<receiver>.<attr>(...)`` a :data:`WALL_CLOCK_CALLS` read?"""
    tail = receiver.rsplit(".", 1)[-1]
    return "%s.%s" % (tail, attr) in WALL_CLOCK_CALLS


#: Exact dotted-path segments that mark a receiver performing real
#: I/O (segment match, not substring — ``self._requests.append`` must
#: not read as the ``requests`` HTTP library).
_WALL_RECEIVER_SEGMENTS: FrozenSet[str] = frozenset({
    "socket", "subprocess", "requests", "urllib", "http",
    "shutil", "stdout", "stderr", "stdin",
})

#: Simulator attributes whose *read or call* is a virtual-time
#: dependency (used when the receiver does not resolve).
_SIM_ATTRS: FrozenSet[str] = frozenset({
    "now", "schedule", "run", "step", "advance", "run_until",
    "cancel",
})


def _simish(receiver_text: str) -> bool:
    tail = receiver_text.rsplit(".", 1)[-1].lower()
    return tail in ("sim", "simulator") or tail.endswith("_sim")


def intrinsic_call_effect(call: ast.Call) -> str:
    """Effect of a call the resolver could not bind to project code.

    Optimistically ``pure`` — external library calls (``sorted``,
    ``dict.get`` …) dominate, and pessimism here would drown the
    boundary map — except for recognized I/O shapes."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in _WALL_NAMES:
            return EFFECT_WALL_IO
        return EFFECT_PURE
    if not isinstance(func, ast.Attribute):
        return EFFECT_PURE
    receiver = (dotted_ref(func.value) or "").lower()
    if func.attr == "sample_hop":
        # Any hop sampling is the wire, whoever holds the network.
        return EFFECT_TRANSPORT
    if reads_wall_clock(receiver, func.attr) or (
        func.attr == "sleep" and receiver.rsplit(".", 1)[-1] == "time"
    ):
        return EFFECT_WALL_IO
    if any(
        segment in _WALL_RECEIVER_SEGMENTS
        for segment in receiver.split(".")
    ):
        return EFFECT_WALL_IO
    if func.attr in _SIM_ATTRS and _simish(receiver):
        return EFFECT_VIRTUAL_TIME
    return EFFECT_PURE


def intrinsic_read_effect(attribute: ast.Attribute) -> str:
    """Effect of a bare attribute *read* (``sim.now`` is the clock)."""
    receiver = (dotted_ref(attribute.value) or "").lower()
    if attribute.attr == "now" and _simish(receiver):
        return EFFECT_VIRTUAL_TIME
    return EFFECT_PURE
