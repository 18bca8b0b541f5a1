"""Typed I/O intents — the sans-io vocabulary.

Protocol logic in :mod:`repro.sansio.engine` is written as plain
Python generators that **yield** instances of the classes below and
receive the result of each operation back at the ``yield`` expression
(or have the operation's failure thrown in with ``generator.throw``).
The generator never touches a socket, a clock, or the simulated
network: everything observable about the outside world arrives through
the intent protocol, so a single body of protocol code is driven by
one loop, :class:`repro.simnet.driver.SimnetDriver`, over either cost
sink:

* a virtual-time :class:`~repro.simnet.Trace`, which charges every
  intent; or
* the wall sink of :class:`repro.serve.transport.WallTransport`, which
  decides each send by the fault model and models no delay.

The intent protocol, per type:

=============  =======================================================
intent         driver obligation
=============  =======================================================
``Send``       deliver one message ``src -> dst`` of ``nbytes``;
               raise :class:`~repro.errors.NodeUnreachableError` /
               :class:`~repro.errors.PacketLossError` *into* the
               program when the wire fails
``Compute``    charge ``ms`` of processing at the current node
``Sleep``      idle for ``ms`` (retry backoff) — a virtual ``wait``;
               free on the wall
``StoreGet``   evaluate ``path`` at store ``store_id``'s adapter and
               send the fragment (or ``None``) back in
``StorePut``   write ``fragment`` at ``path`` on ``store_id``
``SpanOpen``   open a named observability span (attrs attached)
``SpanSet``    set an attribute on the innermost open span
``SpanClose``  close the innermost open span
``Mark``       resilience accounting: ``retry`` / ``failover`` /
               ``stale_serve`` / ``degraded`` / ``degraded_item``
``PartReport`` attach per-part :class:`PartStatus` delivery reports
``Fork``       run sub-programs as parallel legs; exceptions of the
               ``capture`` types become per-leg
               :class:`LegOutcome.error`, anything else propagates
=============  =======================================================

The loop hands span intents to the sink's
:class:`~repro.obs.spans.SpanScope` and closes any spans a program
leaves open — the sans-io equivalent of unwinding ``with
trace.span(...)`` blocks; a program that *returns* with a span open
raises ``RuntimeError``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.pxml import Path, PNode

__all__ = [
    "Intent",
    "Send",
    "Compute",
    "Sleep",
    "StoreGet",
    "StorePut",
    "SpanOpen",
    "SpanSet",
    "SpanClose",
    "Mark",
    "PartReport",
    "Fork",
    "LegOutcome",
    "Program",
    "MARK_KINDS",
]

T = TypeVar("T")

#: A sans-io protocol program: yields intents, receives each intent's
#: result at the yield expression, returns its outcome.
Program = Generator["Intent", Any, T]

#: The resilience accounting vocabulary ``Mark`` may carry.
MARK_KINDS = (
    "retry", "failover", "stale_serve", "degraded", "degraded_item",
)


class Intent:
    """Base class for every sans-io I/O intent."""

    __slots__ = ()


class Payload(Protocol):  # pragma: no cover - typing only
    """A message body that knows its own wire size."""

    def byte_size(self) -> int: ...


class Send(Intent):
    """One message ``src -> dst`` carrying ``nbytes`` on the wire: a
    fixed part plus, when a *payload* rides along, its ``byte_size()``.

    The payload is sized when a cost sink reads :attr:`nbytes` as it
    takes the send. A :class:`~repro.simnet.Trace` does, to charge the
    hop; the wall sink never does, so the served path builds no size
    it would throw away."""

    __slots__ = ("src", "dst", "fixed_bytes", "note", "payload")

    def __init__(
        self,
        src: str,
        dst: str,
        nbytes: int,
        note: str = "",
        payload: Optional[Payload] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.fixed_bytes = nbytes
        self.note = note
        self.payload = payload

    @property
    def nbytes(self) -> int:
        if self.payload is None:
            return self.fixed_bytes
        return self.fixed_bytes + self.payload.byte_size()

    def __repr__(self) -> str:
        return "<Send %s->%s %dB%s>" % (
            self.src, self.dst, self.nbytes,
            " (%s)" % self.note if self.note else "",
        )


class Compute(Intent):
    """Local processing time at the current node."""

    __slots__ = ("ms", "note")

    def __init__(self, ms: float, note: str = "") -> None:
        self.ms = ms
        self.note = note

    def __repr__(self) -> str:
        return "<Compute %.3fms%s>" % (
            self.ms, " (%s)" % self.note if self.note else "",
        )


class Sleep(Intent):
    """Idle time (retry backoff): no bytes move, nothing computes."""

    __slots__ = ("ms", "note")

    def __init__(self, ms: float, note: str = "") -> None:
        self.ms = ms
        self.note = note

    def __repr__(self) -> str:
        return "<Sleep %.3fms%s>" % (
            self.ms, " (%s)" % self.note if self.note else "",
        )


class StoreGet(Intent):
    """Evaluate *path* at *store_id*; the driver sends the fragment
    (:class:`~repro.pxml.PNode` or ``None``) back into the program."""

    __slots__ = ("store_id", "path")

    def __init__(self, store_id: str, path: Path) -> None:
        self.store_id = store_id
        self.path = path

    def __repr__(self) -> str:
        return "<StoreGet %s %s>" % (self.store_id, self.path)


class StorePut(Intent):
    """Write *fragment* at *path* on *store_id* (provisioning leg)."""

    __slots__ = ("store_id", "path", "fragment")

    def __init__(
        self, store_id: str, path: Path, fragment: PNode
    ) -> None:
        self.store_id = store_id
        self.path = path
        self.fragment = fragment

    def __repr__(self) -> str:
        return "<StorePut %s %s>" % (self.store_id, self.path)


class SpanOpen(Intent):
    """Open a named observability span with optional attributes."""

    __slots__ = ("name", "attrs")

    def __init__(
        self, name: str, attrs: Optional[Dict[str, object]] = None
    ) -> None:
        self.name = name
        self.attrs = attrs

    def __repr__(self) -> str:
        return "<SpanOpen %s>" % self.name


class SpanSet(Intent):
    """Set one attribute on the innermost open span."""

    __slots__ = ("key", "value")

    def __init__(self, key: str, value: object) -> None:
        self.key = key
        self.value = value

    def __repr__(self) -> str:
        return "<SpanSet %s=%r>" % (self.key, self.value)


class SpanClose(Intent):
    """Close the innermost open span."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<SpanClose>"


class Mark(Intent):
    """Resilience accounting event (see :data:`MARK_KINDS`)."""

    __slots__ = ("kind", "count")

    def __init__(self, kind: str, count: int = 1) -> None:
        if kind not in MARK_KINDS:
            raise ValueError("unknown mark kind %r" % kind)
        if count < 1:
            raise ValueError("mark count must be >= 1")
        self.kind = kind
        self.count = count

    def __repr__(self) -> str:
        return "<Mark %s x%d>" % (self.kind, self.count)


class PartReport(Intent):
    """Attach per-part delivery reports (``PartStatus`` objects) to
    whatever status ledger the driver maintains."""

    __slots__ = ("statuses",)

    def __init__(self, statuses: Sequence[object]) -> None:
        self.statuses = list(statuses)

    def __repr__(self) -> str:
        return "<PartReport %d parts>" % len(self.statuses)


class LegOutcome:
    """Result of one :class:`Fork` leg: a value or a captured error."""

    __slots__ = ("value", "error")

    def __init__(
        self,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:
        if self.error is not None:
            return "<LegOutcome error=%s>" % type(self.error).__name__
        return "<LegOutcome ok>"


class Fork(Intent):
    """Run *programs* as parallel legs and resume with the list of
    per-leg :class:`LegOutcome` (in leg order).

    Exceptions of the *capture* types raised by a leg are recorded in
    its outcome; any other exception aborts the fork and propagates
    (legs after the failing one never run, and no join is performed) —
    mirroring the inline semantics the engine was refactored from."""

    __slots__ = ("programs", "capture")

    def __init__(
        self,
        programs: Sequence[Program],
        capture: Union[
            Tuple[Type[BaseException], ...], Tuple[()]
        ] = (),
    ) -> None:
        self.programs = list(programs)
        self.capture = capture

    def __repr__(self) -> str:
        return "<Fork %d legs capture=%s>" % (
            len(self.programs),
            "/".join(t.__name__ for t in self.capture) or "none",
        )


def leg_values(outcomes: Sequence[LegOutcome]) -> List[Any]:
    """Values of successful legs, in leg order (helper for callers
    that only need the survivors)."""
    return [o.value for o in outcomes if o.ok]
