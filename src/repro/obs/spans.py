"""Hierarchical spans over virtual time.

A :class:`Span` is one named, attributed interval on the simulator
clock — a hop across a link, a privacy-shield check, one retry sweep
of a resilience fetch, a whole chaining query. Spans nest: every span
but the root carries its parent's id, so a recorded trace reconstructs
the *tree* of where a query's latency went, which the flat
:class:`~repro.simnet.Trace` accumulator (totals only) cannot answer.

Design constraints, in order:

1. **Never perturb the simulation.** Spans carry the timestamps of
   the :class:`Clock` their :class:`SpanScope` was given — a simnet
   trace's virtual now, or a wall clock in the serving layer — and
   never round or allocate ids from anything non-deterministic. With
   no recorder attached no span is constructed; the scope only
   counts depth.
2. **Parallel branches are first-class.** The ``Trace.fork()/join()``
   cost model charges the *max* of branch elapsed times; spans mirror
   that with a ``fork_group`` attribute stamped on each branch's root
   span at join time, so :func:`repro.obs.export.expected_duration`
   can reconcile a parent span against max-per-group + sequential-sum
   of its children.
3. **Cheap.** ``__slots__`` everywhere; attributes and events are
   created lazily.
4. **Balanced by construction.** :class:`SpanScope` is the one span
   stack both sans-io drivers and ``Trace.span`` use; each unwinds
   to the depth it started at and refuses to return above it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple,
)

__all__ = [
    "Clock", "DEFAULT_MAX_SPANS", "ScopedSpan", "Span", "SpanEvent",
    "SpanRecorder", "SpanScope",
]

#: Default :class:`SpanRecorder` retention. Far above any single
#: experiment's span count, but finite: an always-on network with
#: tracing enabled must not accumulate spans forever.
DEFAULT_MAX_SPANS = 100_000


class SpanEvent:
    """A point-in-time annotation inside a span (a retry decision, a
    backoff expiry, a cache verdict) — exported as a Chrome "instant"
    event."""

    __slots__ = ("name", "at_ms", "attrs")

    def __init__(
        self,
        name: str,
        at_ms: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.at_ms = at_ms
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}

    def __repr__(self) -> str:
        return "<SpanEvent %s @%.3f>" % (self.name, self.at_ms)


class Span:
    """One named interval of virtual time, with parentage and bag-of
    attributes. ``end_ms`` stays ``None`` until the span is finished;
    ``open_spans()`` reports one never finished, and the simnet driver
    refuses a program that returns with a span still open."""

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "tid",
        "start_ms", "end_ms", "attrs", "events",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        start_ms: float,
        parent_id: Optional[int] = None,
        trace_id: int = 0,
        tid: int = 0,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        #: Export lane (Chrome "thread"); branches of a fork get their
        #: own lane so parallel work renders side by side.
        self.tid = tid
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        #: The shared empty tuple until the first :meth:`event` — most
        #: retained spans never get one, and readers only iterate.
        self.events: Sequence[SpanEvent] = ()

    # -- mutation ----------------------------------------------------------

    def set(self, key: str, value: object) -> "Span":
        self.attrs[key] = value
        return self

    def event(
        self,
        name: str,
        at_ms: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanEvent:
        ev = SpanEvent(name, at_ms, attrs)
        if self.events:
            self.events.append(ev)
        else:
            # Grows only while the span is open; the recorder caps
            # how many spans it keeps.
            self.events = [ev]
        return ev

    # -- reading -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        """Virtual duration; 0 for an unfinished span (exporters treat
        those as degenerate instants rather than crashing)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def __repr__(self) -> str:
        state = (
            "%.3f" % self.duration_ms if self.finished else "open"
        )
        return "<Span %s#%d %s>" % (self.name, self.span_id, state)


class SpanRecorder:
    """The sink spans are written into.

    One recorder serves a whole :class:`~repro.simnet.Network`; each
    top-level :class:`~repro.simnet.Trace` allocates a fresh
    ``trace_id`` so the recorder can hold many queries' trees at once
    (and the Chrome export renders each as its own "process").

    Ids are dense integers allocated in creation order — fully
    deterministic, and doubling as a stable sort key for exports.
    """

    __slots__ = (
        "spans", "max_spans", "dropped",
        "_next_span_id", "_next_trace_id", "_next_tid",
    )

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        #: Creation order, oldest first — eviction works from the head.
        self.spans: Deque[Span] = deque()
        #: Retention cap: starting a span past it evicts the oldest
        #: *finished* spans. Open spans are never evicted — they are
        #: still being written to and ``open_spans`` must see them.
        self.max_spans = max_spans
        #: Finished spans evicted by the retention cap.
        self.dropped = 0
        self._next_span_id = 1
        self._next_trace_id = 1
        self._next_tid = 1

    # -- id allocation -----------------------------------------------------

    def new_trace_id(self) -> int:
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return trace_id

    def next_tid(self) -> int:
        """A fresh export lane (for a fork branch)."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        start_ms: float,
        parent_id: Optional[int] = None,
        trace_id: int = 0,
        tid: int = 0,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        span = Span(
            name,
            self._next_span_id,
            start_ms,
            parent_id=parent_id,
            trace_id=trace_id,
            tid=tid,
            attrs=attrs,
        )
        self._next_span_id += 1
        self.spans.append(span)
        if len(self.spans) > self.max_spans:
            self._evict()
        return span

    def _evict(self) -> None:
        """Drop the oldest *finished* spans down to ``max_spans``.
        The head goes while it is finished; behind an open head, the
        first finished span past the open prefix goes — the cost is
        the number of open spans at the head, never the length of
        the recorder. When more than ``max_spans`` spans are
        simultaneously open the deque can exceed the cap — open spans
        are never dropped, and every one of them is finished (or
        leaked, which ``open_spans`` reports) in bounded time."""
        spans = self.spans
        index = 0  # everything before it is open
        while len(spans) > self.max_spans and index < len(spans):
            if spans[index].end_ms is None:
                index += 1
            else:
                del spans[index]
                self.dropped += 1

    def finish(self, span: Span, end_ms: float) -> Span:
        if span.end_ms is not None:
            raise ValueError("span %r already finished" % span.name)
        if end_ms < span.start_ms:
            raise ValueError(
                "span %r would end (%.3f) before it starts (%.3f)"
                % (span.name, end_ms, span.start_ms)
            )
        span.end_ms = end_ms
        return span

    def leaf(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        parent_id: Optional[int] = None,
        trace_id: int = 0,
        tid: int = 0,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record an already-elapsed interval (a hop, a compute charge)
        in one call — start and finish, no open state to balance."""
        span = self.start(
            name, start_ms,
            parent_id=parent_id, trace_id=trace_id, tid=tid, attrs=attrs,
        )
        span.end_ms = end_ms
        return span

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def spans_for(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def roots(self, trace_id: Optional[int] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.parent_id is None
            and (trace_id is None or s.trace_id == trace_id)
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [
            s for s in self.spans
            if s.parent_id == span.span_id
            and s.trace_id == span.trace_id
        ]

    def open_spans(self) -> List[Span]:
        """Spans never finished — should be empty after any query; the
        E18 benchmark asserts this."""
        return [s for s in self.spans if s.end_ms is None]

    def clear(self) -> None:
        """Drop recorded spans (id counters keep running, so ids stay
        unique across a benchmark's phases)."""
        self.spans.clear()

    def trace_ids(self) -> List[int]:
        seen: Dict[int, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return sorted(seen)

    def summary(self) -> List[Tuple[str, int, float]]:
        """(name, count, total duration) per span name, sorted by
        total duration descending — the quick "where did it go" table
        the E18 report prints."""
        totals: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            count, total = totals.get(span.name, (0, 0.0))
            totals[span.name] = (count + 1, total + span.duration_ms)
        return sorted(
            ((name, count, total)
             for name, (count, total) in totals.items()),
            key=lambda row: (-row[2], row[0]),
        )

    def __repr__(self) -> str:
        return "<SpanRecorder %d span(s)>" % len(self.spans)


class Clock(Protocol):
    """Anything with a monotonic ``now_ms``: a wall clock, or a simnet
    :class:`~repro.simnet.Trace` reporting its virtual now."""

    def now_ms(self) -> float: ...


class SpanScope:
    """One span stack — the nesting both drivers share.

    A scope writes into *recorder* under one ``trace_id`` and export
    lane (``tid``), timestamped by *clock*. Without a recorder it
    records nothing but still counts :attr:`depth`, so a driver can
    refuse a program that returns with a span open whether
    observability is on or off. A :meth:`fork_child` scope (one fork
    leg) and a simnet trace borrow an enclosing *parent* span: new
    spans nest under it, and the scope never closes it."""

    __slots__ = ("recorder", "clock", "trace_id", "tid", "_parent", "_stack")

    def __init__(
        self,
        recorder: Optional[SpanRecorder],
        clock: Clock,
        trace_id: Optional[int] = None,
        tid: int = 0,
        parent: Optional[Span] = None,
    ) -> None:
        self.recorder = recorder
        self.clock = clock
        if trace_id is None and recorder is not None:
            trace_id = recorder.new_trace_id()
        self.trace_id = trace_id or 0
        self.tid = tid
        self._parent = parent
        #: ``None`` entries stand for spans opened without a recorder.
        self._stack: List[Optional[Span]] = []

    @property
    def depth(self) -> int:
        """Spans this scope has open."""
        return len(self._stack)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, else the borrowed parent."""
        return self._stack[-1] if self._stack else self._parent

    def open(
        self, name: str, attrs: Optional[Dict[str, object]] = None
    ) -> Optional[Span]:
        span: Optional[Span] = None
        if self.recorder is not None:
            parent = self.current
            span = self.recorder.start(
                name,
                self.clock.now_ms(),
                parent_id=parent.span_id if parent is not None else None,
                trace_id=self.trace_id,
                tid=self.tid,
                attrs=attrs,
            )
        self._stack.append(span)
        return span

    def set(self, key: str, value: object) -> None:
        """Set an attribute on the innermost span this scope opened."""
        span = self._stack[-1] if self._stack else None
        if span is not None:
            span.set(key, value)

    def close(self, floor: int = 0) -> None:
        """Close the innermost span. The bottom *floor* spans are not
        the caller's to close: a driver passes the depth its program
        started at, so an unmatched ``SpanClose`` raises
        ``IndexError`` instead of closing an enclosing span."""
        if len(self._stack) <= floor:
            raise IndexError("no span open above depth %d" % floor)
        span = self._stack.pop()
        if span is not None and self.recorder is not None:
            self.recorder.finish(span, self.clock.now_ms())

    def unwind(self, depth: int = 0) -> int:
        """Close spans, innermost first, until *depth* remain open;
        returns how many it closed."""
        closed = 0
        while len(self._stack) > depth:
            self.close()
            closed += 1
        return closed

    def fork_child(self) -> "SpanScope":
        """A scope for one fork leg: same trace, its own lane, nested
        under this scope's current span."""
        recorder = self.recorder
        return SpanScope(
            recorder,
            self.clock,
            trace_id=self.trace_id,
            tid=recorder.next_tid() if recorder is not None else 0,
            parent=self.current,
        )


class ScopedSpan:
    """The ``with`` form of :meth:`SpanScope.open`, under the drivers'
    run contract: exiting closes the span and anything left open
    inside it, and a block that exits *normally* with an inner span
    still open raises ``RuntimeError``. The span opens when this is
    constructed, not when the block is entered, so one never entered
    stays open and ``open_spans()`` reports it."""

    __slots__ = ("_scope", "_depth", "_span")

    def __init__(
        self,
        scope: SpanScope,
        name: str,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        self._scope = scope
        self._depth = scope.depth
        self._span = scope.open(name, attrs)

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        leaked = self._scope.unwind(self._depth) - 1
        if leaked > 0 and exc_type is None:
            raise RuntimeError(
                "span block exited with %d inner span(s) open" % leaked
            )
        return False
