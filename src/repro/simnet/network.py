"""Simulated converged network: nodes, links, latency, byte accounting.

Every distributed cost in the benchmarks comes from this module. Nodes
(data stores, GUPster servers, client devices) are registered with the
network; message hops sample a deterministic latency (base + seeded
jitter + serialization time from a per-link bandwidth) and are charged
to a :class:`Trace`.

A Trace models one logical operation (e.g. "synchronize Arnaud's
address book"): sequential hops add up; parallel fan-out is expressed
with :meth:`Trace.fork`/:meth:`Trace.join` (elapsed time is the max of
the branches, bytes are the sum — the standard latency/throughput
split).

Failures: what is broken lives in :class:`~repro.simnet.faults.FaultState`,
which a :class:`Network` inherits — failed nodes, per-link packet loss
and forced drops, per-node latency spikes. :meth:`Trace.hop` asks its
``verdict`` per message and charges the refusal here: a down target or
a lost packet costs the configurable detect timeout before
:class:`~repro.errors.NodeUnreachableError` (hard down) or
:class:`~repro.errors.PacketLossError` (*transient* — retry policies
treat it differently) is raised, which is how the availability
experiments (E6/E16) measure the cost of retrying against a mirror.

Resilience observability: every trace carries retry/failover/timeout/
stale-serve/degraded counters, and the network aggregates the same
counters across all traces (:attr:`Network.counters`) so a benchmark
can report fleet-wide behaviour under churn. With no faults injected
the loss RNG is never consulted and every counter stays zero — the
no-fault cost model is bit-for-bit identical to the pre-fault one.

Hierarchical observability (E18): the network owns a
:class:`~repro.obs.MetricsRegistry` (``Network.metrics``) that backs
:class:`ResilienceCounters` — the old integer attributes survive as
*views* over registry counters — and can attach a
:class:`~repro.obs.SpanRecorder` (:meth:`Network.enable_observability`).
With a recorder attached, every Trace opens a root span and each
``hop``/``compute``/``wait`` charge records a leaf span carrying the
link, byte count and outcome; callers can group charges under named
spans with ``with trace.span("referral", store=...)``. The layer sits
strictly *under* the cost model: with no recorder (the default)
nothing is allocated and every sampled latency is bit-identical to
the pre-observability streams (``tests/data/golden_latencies.json``
pins this).

Degraded-response accounting (pinned semantics, E18 audit): the
network-level ``degraded_responses`` counter counts **root traces**
that end up degraded, exactly once each. Branch traces created by
:meth:`Trace.fork` never touch the network counter — their
``degraded_parts`` flow into the parent at :meth:`Trace.join`, which
performs the single root-level transition check. (Previously each
*branch* performed its own first-transition increment, so a fan-out
where two legs degraded counted one response twice, and a parent that
only became degraded via ``join`` was counted through its branches —
by luck, once — only when exactly one leg degraded.)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.errors import NodeUnreachableError, PacketLossError
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.obs.spans import Span, SpanRecorder
from repro.simnet.faults import FaultState

__all__ = [
    "NetworkNode",
    "LinkSpec",
    "Network",
    "Trace",
    "ResilienceCounters",
]

#: Default link bandwidth: 10 Mbit/s ≈ 1250 bytes per millisecond.
DEFAULT_BANDWIDTH_BPMS = 1250.0

#: Charged when a hop targets a failed node (failure detection timeout).
DEFAULT_DETECT_TIMEOUT_MS = 200.0


class NetworkNode:
    """A named participant of the converged network."""

    __slots__ = ("name", "region", "processing_ms")

    def __init__(
        self, name: str, region: str = "core", processing_ms: float = 0.1
    ):
        self.name = name
        self.region = region
        #: Fixed per-message handling cost at this node.
        self.processing_ms = processing_ms

    def __repr__(self) -> str:
        return "<Node %s (%s)>" % (self.name, self.region)


class LinkSpec:
    """Latency/bandwidth description of one (directed) link."""

    __slots__ = ("base_ms", "jitter_ms", "bandwidth_bpms")

    def __init__(
        self,
        base_ms: float,
        jitter_ms: float = 0.0,
        bandwidth_bpms: float = DEFAULT_BANDWIDTH_BPMS,
    ):
        self.base_ms = base_ms
        self.jitter_ms = jitter_ms
        self.bandwidth_bpms = bandwidth_bpms


#: Region-pair latency defaults reflecting the paper's world: managed
#: telecom cores are fast; the public internet is the "weakest link"
#: (requirement 13); cellular air interfaces are slow.
DEFAULT_REGION_LATENCY: Dict[Tuple[str, str], LinkSpec] = {
    ("core", "core"): LinkSpec(2.0, 0.5),
    ("core", "internet"): LinkSpec(25.0, 10.0),
    ("internet", "internet"): LinkSpec(40.0, 15.0),
    ("core", "wireless"): LinkSpec(60.0, 20.0, 40.0),
    ("internet", "wireless"): LinkSpec(90.0, 30.0, 40.0),
    ("wireless", "wireless"): LinkSpec(120.0, 40.0, 40.0),
    ("core", "enterprise"): LinkSpec(15.0, 5.0),
    ("internet", "enterprise"): LinkSpec(30.0, 10.0),
    ("enterprise", "enterprise"): LinkSpec(5.0, 1.0),
    ("wireless", "enterprise"): LinkSpec(80.0, 25.0, 40.0),
}


class ResilienceCounters:
    """Fleet-wide failure/recovery accounting (E16 reads this).

    Since E18 the integers live in a :class:`~repro.obs.MetricsRegistry`
    under ``net.*`` names; the attributes below are registry views."""

    __slots__ = ("registry",)

    #: (attribute, registry name, help) triples, in report order.
    FIELDS: Tuple[Tuple[str, str, str], ...] = (
        ("retries", "net.retries",
         "Backed-off re-attempts after a failed sweep of choices."),
        ("failovers", "net.failovers",
         "Switches to an alternative store/mirror after a failure."),
        ("timeouts", "net.timeouts",
         "Failure-detection timeouts charged (dead node or lost packet)."),
        ("loss_drops", "net.loss_drops",
         "Hops dropped by injected packet loss."),
        ("stale_serves", "net.stale_serves",
         "Cache answers served past TTL because the origin failed."),
        ("degraded_responses", "net.degraded_responses",
         "Root responses returned with at least one unreachable part."),
    )

    retries = CounterView("net.retries", "registry")
    failovers = CounterView("net.failovers", "registry")
    timeouts = CounterView("net.timeouts", "registry")
    loss_drops = CounterView("net.loss_drops", "registry")
    stale_serves = CounterView("net.stale_serves", "registry")
    degraded_responses = CounterView("net.degraded_responses", "registry")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        for _attr, metric, help_text in self.FIELDS:
            self.registry.counter(metric, help=help_text)

    def reset(self) -> None:
        for _attr, metric, _help in self.FIELDS:
            self.registry.counter(metric).reset()

    def as_dict(self) -> Dict[str, int]:
        return {attr: getattr(self, attr) for attr, _m, _h in self.FIELDS}

    def total(self) -> int:
        return sum(getattr(self, attr) for attr, _m, _h in self.FIELDS)

    def __repr__(self) -> str:
        return "<ResilienceCounters %s>" % self.as_dict()


class Network(FaultState):
    """The simulated converged network: topology and latency model on
    top of the fault state it inherits (``fail``/``set_loss``/
    ``force_drops``/… are :class:`~repro.simnet.faults.FaultState`'s)."""

    def __init__(self, seed: int = 2003):
        super().__init__(seed)
        # gupcheck: bounded[topology] -- one entry per declared node; the world is fixed per run
        self._nodes: Dict[str, NetworkNode] = {}
        # gupcheck: bounded[topology] -- two entries per declared link; link() overwrites a pair
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        # gupcheck: bounded[topology] -- keyed by region pair; region vocabulary is fixed per run
        self._region_links: Dict[Tuple[str, str], LinkSpec] = dict(
            DEFAULT_REGION_LATENCY
        )
        self._rng = random.Random(seed)
        self.detect_timeout_ms = DEFAULT_DETECT_TIMEOUT_MS
        #: The metric registry every instrument in this world shares
        #: (net.* counters here; cache.*, health.*, … are registered by
        #: the components a benchmark wires to this network).
        self.metrics = MetricsRegistry()
        #: Aggregated resilience counters across all traces (registry
        #: views — see :class:`ResilienceCounters`).
        self.counters = ResilienceCounters(self.metrics)
        #: Span sink; ``None`` (the default) disables span recording
        #: entirely — no Span is ever constructed.
        self.recorder: Optional[SpanRecorder] = None

    # -- topology -----------------------------------------------------------

    def add_node(
        self,
        name: str,
        region: str = "core",
        processing_ms: float = 0.1,
    ) -> NetworkNode:
        if name in self._nodes:
            raise ValueError("node %r already exists" % name)
        node = NetworkNode(name, region, processing_ms)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> NetworkNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise NodeUnreachableError("unknown node %r" % name) from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> List[NetworkNode]:
        return list(self._nodes.values())

    def link(
        self,
        a: str,
        b: str,
        base_ms: float,
        jitter_ms: float = 0.0,
        bandwidth_bpms: float = DEFAULT_BANDWIDTH_BPMS,
    ) -> None:
        """Explicit symmetric link overriding region defaults."""
        spec = LinkSpec(base_ms, jitter_ms, bandwidth_bpms)
        self._links[(a, b)] = spec
        self._links[(b, a)] = spec

    def set_region_latency(
        self, region_a: str, region_b: str, spec: LinkSpec
    ) -> None:
        self._region_links[(region_a, region_b)] = spec
        self._region_links[(region_b, region_a)] = spec

    def _spec_for(self, src: NetworkNode, dst: NetworkNode) -> LinkSpec:
        explicit = self._links.get((src.name, dst.name))
        if explicit is not None:
            return explicit
        pair = (src.region, dst.region)
        spec = self._region_links.get(pair)
        if spec is None:
            spec = self._region_links.get((dst.region, src.region))
        if spec is None:
            spec = LinkSpec(20.0, 5.0)
        return spec

    # -- failures -------------------------------------------------------------

    def fail(self, name: str) -> None:
        self.node(name)  # unknown nodes cannot fail
        super().fail(name)

    def restore(self, name: str) -> None:
        self.node(name)
        super().restore(name)

    # -- measurement ---------------------------------------------------------

    def trace(self) -> "Trace":
        """Start accounting for one logical operation."""
        return Trace(self)

    def reset_counters(self) -> None:
        self.counters.reset()

    # -- observability (E18) -------------------------------------------------

    def enable_observability(self) -> SpanRecorder:
        """Attach (or return the already-attached) span recorder.

        Only traces created *after* this call record spans — a trace
        binds its recorder at construction so its span tree cannot be
        half-recorded."""
        if self.recorder is None:
            self.recorder = SpanRecorder()
        return self.recorder

    def disable_observability(self) -> None:
        """Detach the recorder; subsequent traces record nothing."""
        self.recorder = None

    def sample_hop(
        self, src: str, dst: str, nbytes: int
    ) -> float:
        """Latency of one message hop (ms), deterministic given the seed
        and call order. Raises if either endpoint is failed/unknown
        (the caller is charged the detection timeout first by Trace)."""
        source = self.node(src)
        target = self.node(dst)
        spec = self._spec_for(source, target)
        jitter = spec.jitter_ms * self._rng.random()
        transfer = nbytes / spec.bandwidth_bpms
        factor = 1.0
        if self._latency_factors:
            factor = self._latency_factors.get(
                src, 1.0
            ) * self._latency_factors.get(dst, 1.0)
        return (
            (spec.base_ms + jitter + transfer) * factor
            + target.processing_ms
        )


class _NullSpanHandle:
    """The no-op ``trace.span(...)`` result when no recorder is
    attached: context manager + attribute sink, all free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, key: str, value: object) -> "_NullSpanHandle":
        return self


_NULL_SPAN = _NullSpanHandle()


class _SpanHandle:
    """Context manager opening a named span on a recording trace. The
    span starts at ``__enter__`` and finishes at ``__exit__`` — at the
    trace's *virtual* now both times — so its duration is exactly the
    sum of the charges made inside the ``with`` block."""

    __slots__ = ("_trace", "_name", "_attrs", "_span")

    def __init__(
        self,
        trace: "Trace",
        name: str,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        trace = self._trace
        rec = trace._rec
        assert rec is not None
        top = trace._stack[-1]
        self._span = rec.start(
            self._name,
            trace._now,
            parent_id=top.span_id,
            trace_id=trace.trace_id,
            tid=trace.tid,
            attrs=self._attrs,
        )
        trace._stack.append(self._span)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        trace = self._trace
        span = self._span
        rec = trace._rec
        if span is None or rec is None:  # pragma: no cover - misuse
            return False
        stack = trace._stack
        # Pop back to (and including) this span; tolerate an inner
        # span leaked by a misbehaving caller rather than corrupting
        # every later parent link.
        while len(stack) > 1 and stack[-1] is not span:
            stack.pop()
        if len(stack) > 1:
            stack.pop()
        rec.finish(span, trace._now)
        return False


class Trace:
    """Cost accumulator for one logical operation over the network.

    With a :class:`~repro.obs.SpanRecorder` attached to the network,
    the trace additionally maintains a hierarchical span tree: a root
    span covering the whole operation, one leaf span per charge
    (``hop``/``compute``/``wait``), and caller-named grouping spans
    via :meth:`span`. All span timestamps are ``_base + elapsed_ms``
    — pure virtual time — and recording changes **no** sampled
    latency (the cost-model code paths are byte-identical; span
    bookkeeping only ever reads ``elapsed_ms``)."""

    def __init__(self, network: Network, parent: Optional["Trace"] = None):
        self._network = network
        self.elapsed_ms: float = 0.0
        self.bytes_total: int = 0
        self.hops: int = 0
        self.log: List[str] = []
        # -- resilience observability (E16) ---------------------------------
        #: Backed-off re-attempts charged to this operation.
        self.retries: int = 0
        #: Failovers to an alternative store/mirror.
        self.failovers: int = 0
        #: Failure-detection timeouts charged.
        self.timeouts_charged: int = 0
        #: Cache entries served past TTL because the origin was down.
        self.stale_serves: int = 0
        #: Referral parts that could not be fetched (degradation).
        self.degraded_parts: int = 0
        #: Per-part delivery report filled by degradable query patterns
        #: (list of :class:`repro.core.resilience.PartStatus`).
        self.part_status: List[object] = []
        # -- hierarchical observability (E18) --------------------------------
        #: Branches (from :meth:`fork`) defer degraded-response and
        #: span-root bookkeeping to their parent.
        self._is_branch = parent is not None
        #: Number of joins performed (names the fork groups).
        self._join_seq = 0
        rec = network.recorder
        self._rec = rec
        if rec is None:
            self.trace_id = 0
            self.tid = 0
            self._base = 0.0
            self._root: Optional[Span] = None
            self._stack: List[Span] = []
            return
        if parent is None or parent._root is None:
            self.trace_id = rec.new_trace_id()
            self.tid = 0
            self._base = 0.0
            self._root = rec.start(
                "trace", 0.0, trace_id=self.trace_id, tid=0
            )
        else:
            self.trace_id = parent.trace_id
            self.tid = rec.next_tid()
            self._base = parent._base + parent.elapsed_ms
            self._root = rec.start(
                "branch",
                self._base,
                parent_id=parent._stack[-1].span_id,
                trace_id=self.trace_id,
                tid=self.tid,
            )
        # The root is kept *closed* at the high-water mark of charges
        # (its end advances with every charge), so a finished query
        # never leaves an open span behind.
        self._root.end_ms = self._base
        self._stack = [self._root]

    # -- observability plumbing ----------------------------------------------

    @property
    def _now(self) -> float:
        """This trace's absolute virtual instant (branch base + own
        elapsed). Only meaningful for span timestamps — the cost model
        itself never reads it."""
        return self._base + self.elapsed_ms

    def _leaf(
        self, name: str, start_ms: float,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        rec = self._rec
        if rec is None:  # pragma: no cover - callers pre-check
            return
        end = self._now
        rec.leaf(
            name,
            start_ms,
            end,
            parent_id=self._stack[-1].span_id,
            trace_id=self.trace_id,
            tid=self.tid,
            attrs=attrs,
        )
        root = self._root
        if root is not None:
            root.end_ms = end

    def span(self, name: str, **attrs: object):
        """Open a named child span covering the charges made inside
        the returned context manager (store id, requester scope, retry
        number… go in ``attrs``). Free when observability is off."""
        if self._rec is None:
            return _NULL_SPAN
        return _SpanHandle(self, name, attrs if attrs else None)

    def event(self, name: str, **attrs: object) -> None:
        """A point-in-time annotation on the current span."""
        if self._rec is not None:
            self._stack[-1].event(
                name, self._now, attrs if attrs else None
            )

    # -- sequential costs -----------------------------------------------------

    def hop(
        self, src: str, dst: str, nbytes: int, note: str = ""
    ) -> None:
        """One message from *src* to *dst* carrying *nbytes*."""
        if self._rec is None:
            return self._hop(src, dst, nbytes, note)
        start = self._now
        status = "ok"
        try:
            return self._hop(src, dst, nbytes, note)
        except NodeUnreachableError:
            status = "unreachable"
            raise
        except PacketLossError:
            status = "lost"
            raise
        finally:
            attrs: Dict[str, object] = {
                "src": src, "dst": dst, "bytes": nbytes,
                "status": status,
            }
            if note:
                attrs["note"] = note
            self._leaf("hop", start, attrs)

    def _hop(
        self, src: str, dst: str, nbytes: int, note: str = ""
    ) -> None:
        network = self._network
        network.node(dst)
        network.node(src)
        refusal = network.verdict(src, dst)
        if refusal is not None:
            error, timed_out = refusal
            if timed_out:
                self.elapsed_ms += network.detect_timeout_ms
                self.timeouts_charged += 1
                network.counters.timeouts += 1
                lost = isinstance(error, PacketLossError)
                if lost:
                    network.counters.loss_drops += 1
                self.log.append(
                    "%s -> %s: %s (timeout charged)"
                    % (src, dst, "LOST" if lost else "FAILED")
                )
            raise error
        latency = network.sample_hop(src, dst, nbytes)
        self.elapsed_ms += latency
        self.bytes_total += nbytes
        self.hops += 1
        if note:
            self.log.append(
                "%s -> %s: %d B, %.2f ms (%s)"
                % (src, dst, nbytes, latency, note)
            )
        else:
            self.log.append(
                "%s -> %s: %d B, %.2f ms" % (src, dst, nbytes, latency)
            )

    def round_trip(
        self,
        src: str,
        dst: str,
        request_bytes: int,
        response_bytes: int,
        note: str = "",
    ) -> None:
        """Request + response over the same link."""
        self.hop(src, dst, request_bytes, note + " (request)" if note else "")
        self.hop(dst, src, response_bytes, note + " (response)" if note else "")

    def compute(self, ms: float, note: str = "") -> None:
        """Local processing time (query rewriting, policy evaluation...)."""
        if ms < 0:
            raise ValueError("negative compute time")
        if self._rec is None:
            self.elapsed_ms += ms
            if note:
                self.log.append("compute: %.3f ms (%s)" % (ms, note))
            return
        start = self._now
        self.elapsed_ms += ms
        if note:
            self.log.append("compute: %.3f ms (%s)" % (ms, note))
        self._leaf(
            "compute", start, {"note": note} if note else None
        )

    def wait(self, ms: float, note: str = "") -> None:
        """Idle wall-clock time charged to the operation (retry
        backoff). No bytes move and nothing computes."""
        if ms < 0:
            raise ValueError("negative wait time")
        if self._rec is None:
            self.elapsed_ms += ms
            if note:
                self.log.append("wait: %.3f ms (%s)" % (ms, note))
            return
        start = self._now
        self.elapsed_ms += ms
        if note:
            self.log.append("wait: %.3f ms (%s)" % (ms, note))
        self._leaf("wait", start, {"note": note} if note else None)

    # -- resilience accounting -------------------------------------------------

    def note_retry(self) -> None:
        self.retries += 1
        self._network.counters.retries += 1
        if self._rec is not None:
            self.event("retry", count=self.retries)

    def note_failover(self) -> None:
        self.failovers += 1
        self._network.counters.failovers += 1
        if self._rec is not None:
            self.event("failover", count=self.failovers)

    def note_stale_serve(self) -> None:
        self.stale_serves += 1
        self._network.counters.stale_serves += 1
        if self._rec is not None:
            self.event("stale_serve", count=self.stale_serves)

    def note_degraded(self, parts: int = 1) -> None:
        """Record *parts* unreachable referral parts.

        The fleet-wide ``degraded_responses`` counter counts **root**
        traces only (see the module docstring for the pinned
        semantics); a branch's degradation reaches the network
        aggregate through its parent's :meth:`join`."""
        first = self.degraded_parts == 0
        self.degraded_parts += parts
        if first and parts and not self._is_branch:
            self._network.counters.degraded_responses += 1
        if self._rec is not None and parts:
            self.event("degraded", parts=parts)

    def note_degraded_item(self, parts: int = 1) -> None:
        """Batch accounting: one batched *item* (a logical response
        sharing this trace with its batch-mates) degraded with *parts*
        unreachable referral parts.

        Unlike :meth:`note_degraded` — whose fleet-wide counter counts
        root traces once on first transition — every call here charges
        one ``degraded_responses``: a batch of 20 queries with 3
        degraded items is 3 degraded responses, exactly as if they had
        been issued sequentially."""
        if not parts:
            return
        self.degraded_parts += parts
        self._network.counters.degraded_responses += 1
        if self._rec is not None:
            self.event("degraded_item", parts=parts)

    @property
    def degraded(self) -> bool:
        """True when this response is partial (some parts missing)."""
        return self.degraded_parts > 0

    # -- parallel composition ---------------------------------------------------

    def fork(self) -> "Trace":
        """A branch trace for one leg of a parallel fan-out."""
        return Trace(self._network, parent=self)

    def join(self, branches: List["Trace"]) -> None:
        """Merge parallel branches: elapsed += max, bytes/hops += sum.
        Resilience counters and part reports sum across branches (the
        network-level aggregate was already charged at event time —
        except ``degraded_responses``, whose root-level transition is
        decided here; see :meth:`note_degraded`)."""
        if not branches:
            return
        was_degraded = self.degraded_parts > 0
        self._join_seq += 1
        group = "j%d" % self._join_seq
        self.elapsed_ms += max(branch.elapsed_ms for branch in branches)
        for branch in branches:
            self.bytes_total += branch.bytes_total
            self.hops += branch.hops
            self.retries += branch.retries
            self.failovers += branch.failovers
            self.timeouts_charged += branch.timeouts_charged
            self.stale_serves += branch.stale_serves
            self.degraded_parts += branch.degraded_parts
            self.part_status.extend(branch.part_status)
            self.log.extend("| " + line for line in branch.log)
            if branch._root is not None and branch._root.name == "branch":
                # Stamp the fork group so exporters reconcile this
                # join as max-over-group, not a sequential sum.
                branch._root.set("fork_group", group)
        if (
            not self._is_branch
            and not was_degraded
            and self.degraded_parts > 0
        ):
            self._network.counters.degraded_responses += 1
        if self._rec is not None and self._root is not None:
            self._root.end_ms = self._now

    def snapshot(self) -> Dict[str, float]:
        return {
            "elapsed_ms": self.elapsed_ms,
            "bytes": float(self.bytes_total),
            "hops": float(self.hops),
            "retries": float(self.retries),
            "failovers": float(self.failovers),
            "timeouts": float(self.timeouts_charged),
            "stale_serves": float(self.stale_serves),
            "degraded_parts": float(self.degraded_parts),
        }
