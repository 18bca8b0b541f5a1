"""Per-function taint summaries.

A :class:`Summary` abstracts one project function for interprocedural
reasoning.  Taint *labels* are strings: ``"src"`` marks raw profile
data obtained from a store/adapter/cache/sync-endpoint source, and
``"p<i>"`` marks the value of parameter ``i`` (``self`` is parameter 0
for methods).  The summary records which labels survive to the return
value after sanitizer kills — composing summaries along call edges
gives transitive flows without re-walking callee bodies.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Tuple

__all__ = ["SOURCE_LABEL", "Summary"]

#: Label carried by raw (unshielded) profile data.
SOURCE_LABEL = "src"


class Summary:
    """What one function does with taint, seen from its callers."""

    __slots__ = ("qualname", "relpath", "returns_source",
                 "param_flows", "sanitizes", "guards",
                 "tainted_return_lines", "egress_sends",
                 "reaches_sim_run", "effect", "grown_params",
                 "shrunk_params")

    def __init__(
        self,
        qualname: str,
        relpath: str,
        returns_source: bool = False,
        param_flows: FrozenSet[int] = frozenset(),
        sanitizes: bool = False,
        guards: bool = False,
        tainted_return_lines: Tuple[int, ...] = (),
        egress_sends: Tuple[Tuple[int, int, str], ...] = (),
        reaches_sim_run: bool = False,
        effect: str = "pure",
        grown_params: FrozenSet[int] = frozenset(),
        shrunk_params: FrozenSet[int] = frozenset(),
    ) -> None:
        self.qualname = qualname
        self.relpath = relpath
        #: Return value may carry raw source data (``src`` label).
        self.returns_source = returns_source
        #: Parameter indices whose value may flow to the return
        #: unsanitized (``self`` is index 0 for methods).
        self.param_flows = param_flows
        #: The function is a privacy-shield sanitizer: its result is
        #: clean regardless of argument taint.
        self.sanitizes = sanitizes
        #: The function performs a shield *guard* — a check-style
        #: ``enforce`` call that raises on deny (GUPster's dominant
        #: idiom: enforce the policy, then release the data).  A
        #: caller is considered shield-mediated after the call.
        self.guards = guards
        #: Lines of ``return`` statements whose value carries ``src``.
        self.tainted_return_lines = tainted_return_lines
        #: ``(line, col, sink-name)`` of ``src``-tainted arguments
        #: handed to network-style send sinks inside this function.
        self.egress_sends = egress_sends
        #: Function transitively calls ``Simulator.run/step/advance``.
        self.reaches_sim_run = reaches_sim_run
        #: Inferred effect tier: ``pure`` < ``virtual-time`` <
        #: ``transport`` < ``wall-io`` — the join over the body and
        #: every resolved callee (see
        #: :mod:`repro.analysis.interproc.effects`).
        self.effect = effect
        #: Parameter indices whose container the function (or a
        #: callee it hands them to) grows / shrinks in place — the
        #: helper attribution of :mod:`repro.analysis.interproc.growth`.
        self.grown_params = grown_params
        self.shrunk_params = shrunk_params

    # -- equality drives the fixpoint ----------------------------------

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.returns_source, self.param_flows, self.sanitizes,
            self.guards, self.tainted_return_lines,
            self.egress_sends, self.reaches_sim_run, self.effect,
            self.grown_params, self.shrunk_params,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Summary):
            return NotImplemented
        return (
            self.qualname == other.qualname
            and self._key() == other._key()
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    def __hash__(self) -> int:
        return hash((self.qualname,) + self._key())

    def __repr__(self) -> str:
        bits: List[str] = []
        if self.returns_source:
            bits.append("returns-src")
        if self.param_flows:
            bits.append(
                "flows=%s" % ",".join(
                    "p%d" % i for i in sorted(self.param_flows)
                )
            )
        if self.sanitizes:
            bits.append("sanitizes")
        if self.guards:
            bits.append("guards")
        if self.reaches_sim_run:
            bits.append("reaches-sim-run")
        if self.effect != "pure":
            bits.append("effect=%s" % self.effect)
        return "<Summary %s %s>" % (
            self.qualname, " ".join(bits) or "clean",
        )
