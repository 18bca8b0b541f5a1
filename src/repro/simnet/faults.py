"""Deterministic, seedable fault injection for the converged network.

The paper's requirement 13 calls the public internet "the weakest
link", and Section 5.1 argues the mirrored meta-data constellation by
its behaviour *under failure* — yet a simulator that never fails
anything can only measure the sunny day.

:class:`FaultState` is what is broken right now — the one fault model
both cost sinks consult. A :class:`~repro.simnet.Network` is one (it adds
topology); :class:`repro.serve.WallTransport` takes a bare one. Each
asks :meth:`FaultState.verdict` per message and charges the refusal in
its own currency: virtual milliseconds and ``net.*`` counters there,
``serve.send_failures`` alone here.

:class:`FaultSchedule` scripts changes to that state against virtual
time so experiment E16 (availability under churn) is exactly
reproducible:

* **node flaps** — a node goes down at one instant and comes back at
  another, optionally on a periodic schedule;
* **link packet loss** — a per-link drop probability (seeded, drawn
  from the state's dedicated loss RNG) or a deterministic "drop the
  next N messages" directive for tests;
* **latency spikes** — a multiplicative congestion factor on every hop
  touching a node, for a bounded window.

A :class:`FaultSchedule` arms all of this on an existing
:class:`~repro.simnet.engine.Simulator`; nothing happens until the
simulation clock reaches the scheduled instants, and two runs with the
same seed and the same schedule observe byte-identical traces.
MOBILEATLAS-style testbeds bake controlled degradation into the
measurement substrate for the same reason: credible availability
numbers need scripted, repeatable faults.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import (
    NetworkError,
    NodeUnreachableError,
    PacketLossError,
)
from repro.simnet.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - Network subclasses FaultState
    from repro.simnet.network import Network

__all__ = ["FaultSchedule", "FaultState"]


class FaultState:
    """Failed nodes and link impairments — the one fault model.

    No topology: any name may be failed or impaired (a
    :class:`~repro.simnet.Network` adds the unknown-node check). With
    nothing injected the loss RNG is never consulted, so un-faulted
    runs reproduce the historical latency streams bit for bit."""

    def __init__(self, seed: int = 2003) -> None:
        # Node names only; the topology is fixed per run.
        self._failed: Set[str] = set()
        #: Per-link packet-loss probability (symmetric).
        self._loss: Dict[Tuple[str, str], float] = {}
        #: Deterministic forced drops: next N messages on a link are
        #: lost (one budget per link, keyed by the sorted pair).
        self._forced_drops: Dict[Tuple[str, str], int] = {}
        #: Per-node latency multipliers (congestion spikes).
        self._latency_factors: Dict[str, float] = {}
        # A dedicated RNG for loss decisions so injecting loss on one
        # link does not perturb the jitter stream of other links.
        self._loss_rng = random.Random(seed ^ 0x5EED)

    def fail(self, name: str) -> None:
        self._failed.add(name)

    def restore(self, name: str) -> None:
        self._failed.discard(name)

    def is_failed(self, name: str) -> bool:
        return name in self._failed

    def set_loss(self, a: str, b: str, rate: float) -> None:
        """Symmetric per-link packet-loss probability in [0, 1]."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        if rate == 0.0:
            self._loss.pop((a, b), None)
            self._loss.pop((b, a), None)
        else:
            self._loss[(a, b)] = rate
            self._loss[(b, a)] = rate

    def clear_loss(self, a: str, b: str) -> None:
        self.set_loss(a, b, 0.0)

    def force_drops(self, a: str, b: str, count: int = 1) -> None:
        """Deterministically drop the next *count* messages on the
        link, in either direction (one shared budget) — the building
        block for reproducible transient-failure tests."""
        if count < 0:
            raise ValueError("drop count must be >= 0")
        key = (a, b) if a <= b else (b, a)
        if count == 0:
            self._forced_drops.pop(key, None)
        else:
            self._forced_drops[key] = count

    def set_latency_factor(self, name: str, factor: float) -> None:
        """Multiply propagation + transfer latency of every hop
        touching node *name* (congestion spike). Factor 1.0 clears."""
        if factor <= 0:
            raise ValueError("latency factor must be positive")
        if factor == 1.0:
            self._latency_factors.pop(name, None)
        else:
            self._latency_factors[name] = factor

    def clear_latency_factor(self, name: str) -> None:
        self.set_latency_factor(name, 1.0)

    def _should_drop(self, src: str, dst: str) -> bool:
        """Consume one loss decision for a message src→dst. Only
        consults the loss RNG when a loss rate is configured for the
        link, so un-faulted runs draw exactly the historical random
        stream."""
        link = (src, dst) if src <= dst else (dst, src)
        forced = self._forced_drops.get(link, 0)
        if forced > 0:
            if forced == 1:
                del self._forced_drops[link]
            else:
                self._forced_drops[link] = forced - 1
            return True
        rate = self._loss.get((src, dst))
        if rate:
            return self._loss_rng.random() < rate
        return False

    def verdict(
        self, src: str, dst: str
    ) -> Optional[Tuple[NetworkError, bool]]:
        """Decide one message src→dst: ``None`` delivers it, else (the
        error to raise, whether the sender only learns of it by
        waiting out failure detection). The order is written here and
        nowhere else — a down source wins over a down target wins over
        a drop, and only a message that gets as far as the link
        consumes a drop decision."""
        if src in self._failed:
            return NodeUnreachableError("source %r is down" % src), False
        if dst in self._failed:
            return NodeUnreachableError("node %r is down" % dst), True
        if self._should_drop(src, dst):
            return PacketLossError(
                "message %s -> %s lost" % (src, dst)
            ), True
        return None


class FaultSchedule:
    """Scripts node/link faults against a simulator's virtual clock.

    All ``at``/``start``/``end`` arguments are absolute virtual times
    (ms). Scheduling an event in the past of the simulator clock fires
    it immediately (time zero delay) — convenient for "the store is
    already down when the run starts" setups.
    """

    def __init__(
        self, sim: Simulator, network: Network, seed: int = 2003
    ):
        self.sim = sim
        self.network = network
        #: Private RNG: randomized schedules (``random_flaps``) are a
        #: pure function of this seed, independent of the network RNG.
        self._rng = random.Random(seed)
        #: Applied events, for assertions: (virtual time, description).
        self.events: List[Tuple[float, str]] = []
        #: Events armed on the simulator (fired or not).
        self.injected = 0

    # -- plumbing -----------------------------------------------------------

    def _at(self, when: float, action, description: str) -> None:
        def fire():
            action()
            self.events.append((self.sim.now, description))

        self.sim.schedule(max(0.0, when - self.sim.now), fire)
        self.injected += 1

    # -- node flaps ----------------------------------------------------------

    def down(self, node: str, at: float) -> None:
        """Node *node* fails at time *at*."""
        self._at(at, lambda: self.network.fail(node), "down %s" % node)

    def up(self, node: str, at: float) -> None:
        """Node *node* recovers at time *at*."""
        self._at(at, lambda: self.network.restore(node), "up %s" % node)

    def flap(self, node: str, down_at: float, up_at: float) -> None:
        """One down/up cycle for *node*."""
        if up_at <= down_at:
            raise ValueError("flap must recover after it fails")
        self.down(node, down_at)
        self.up(node, up_at)

    def flap_every(
        self,
        node: str,
        period: float,
        downtime: float,
        start: float = 0.0,
        until: Optional[float] = None,
    ) -> int:
        """Periodic flapping: from *start*, every *period* ms the node
        goes down for *downtime* ms. Returns the number of cycles
        armed. The whole schedule is computed eagerly (not via
        recurrence callbacks), so it is a pure function of its
        arguments."""
        if period <= 0 or downtime <= 0 or downtime >= period:
            raise ValueError("need 0 < downtime < period")
        cycles = 0
        down_at = start + (period - downtime)
        while until is None or down_at + downtime <= until:
            self.flap(node, down_at, down_at + downtime)
            cycles += 1
            down_at += period
            if until is None and cycles:
                break  # un-bounded schedules arm a single cycle
        return cycles

    def random_flaps(
        self,
        nodes: Sequence[str],
        mean_up_ms: float,
        down_ms: float,
        until: float,
        start: float = 0.0,
    ) -> int:
        """Seeded random churn: each node independently alternates
        exponentially-distributed uptime with fixed *down_ms* outages.
        Deterministic given the schedule seed. Returns flaps armed."""
        if mean_up_ms <= 0 or down_ms <= 0:
            raise ValueError("durations must be positive")
        flaps = 0
        for node in nodes:
            at = start + self._rng.expovariate(1.0 / mean_up_ms)
            while at + down_ms <= until:
                self.flap(node, at, at + down_ms)
                flaps += 1
                at += down_ms + self._rng.expovariate(1.0 / mean_up_ms)
        return flaps

    # -- link impairments -----------------------------------------------------

    def link_loss(
        self,
        a: str,
        b: str,
        rate: float,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> None:
        """Packet loss at probability *rate* on the (symmetric) a↔b
        link from *start*, cleared at *end* when given."""
        self._at(
            start,
            lambda: self.network.set_loss(a, b, rate),
            "loss %s<->%s p=%.3f" % (a, b, rate),
        )
        if end is not None:
            self._at(
                end,
                lambda: self.network.clear_loss(a, b),
                "loss-clear %s<->%s" % (a, b),
            )

    def drop_next(
        self, a: str, b: str, count: int = 1, at: float = 0.0
    ) -> None:
        """Deterministically drop the next *count* messages on a↔b
        starting at time *at* (reproducible transient failures)."""
        self._at(
            at,
            lambda: self.network.force_drops(a, b, count),
            "drop-next %s<->%s x%d" % (a, b, count),
        )

    def latency_spike(
        self,
        node: str,
        factor: float,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> None:
        """Congestion at *node*: hops touching it slow down by
        *factor* between *start* and *end*."""
        if factor < 1.0:
            raise ValueError("a spike slows things down (factor >= 1)")
        self._at(
            start,
            lambda: self.network.set_latency_factor(node, factor),
            "spike %s x%.1f" % (node, factor),
        )
        if end is not None:
            self._at(
                end,
                lambda: self.network.clear_latency_factor(node),
                "spike-clear %s" % node,
            )

    # -- reporting -----------------------------------------------------------

    def applied(self) -> int:
        """Events that have actually fired so far."""
        return len(self.events)

    def __repr__(self) -> str:
        return "<FaultSchedule %d armed, %d applied>" % (
            self.injected, len(self.events),
        )
