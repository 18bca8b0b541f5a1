"""Subscriptions: pull/poll vs GUPster-internal push (paper Section 5.2).

"In the current architecture, GUPster is a reactive (pull-based) not
pro-active (push-based) system. It is always possible to push-enable a
pull-based system using polling, but this may not be very efficient. In
our case, every polling request needs to be checked to enforce the
end-user's privacy shield. Having the subscription handled by GUPster
internally would save this extra work."

:class:`SubscriptionHub` runs the two strategies on the event
simulator:

* **polling** — the client polls through GUPster at a fixed interval;
  every poll pays a policy check and the full fetch path, and change
  delivery latency averages half the interval.
* **push** — the client subscribes once and rides the change bus
  (E20): deltas coalesce into waves, one round trip per (listener,
  wave), and every delta is re-checked against the shield (far fewer
  checks than polling — one per *change*, not one per *tick* — but
  never zero: a revoked policy must stop deliveries, not ride a stale
  subscribe-time decision forever). The re-check is memoized only
  within a wave.

Experiment E12 reads the delivery records and counters; E20 drives
the push path at scale.

Accounting (E18 audit): the hub's counters are views over the
network's shared :class:`~repro.obs.MetricsRegistry` (``sub.*``), and
every delivery whose change instant is known lands its latency in the
``sub.delivery_latency_ms`` histogram. A delivery whose originating
change was never logged gets ``changed_at=None`` and a NaN latency —
counted in ``sub.latency_unknown`` — instead of the old fabricated
"changed just now" timestamp that recorded near-zero poll latencies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.errors import AccessDeniedError, GupsterError, NetworkError
from repro.bus import ChangeBus, ChangeRecord, SubscriberListener
from repro.obs.metrics import CounterView
from repro.pxml import Path, parse_path
from repro.pxml.evaluate import evaluate_values
from repro.seqlog import trim_oldest
from repro.access import RequestContext
from repro.core.query import QueryExecutor
from repro.core.server import GupsterServer
from repro.simnet import Network, Simulator, Timer

__all__ = ["Delivery", "SubscriptionHub"]


class Delivery:
    """One observed change delivery.

    ``changed_at`` is ``None`` when the change was never logged on the
    bus — the latency is then unknown (NaN), **not** zero."""

    __slots__ = ("mode", "value", "changed_at", "delivered_at")

    def __init__(
        self, mode: str, value: str, changed_at: Optional[float],
        delivered_at: float,
    ) -> None:
        self.mode = mode
        self.value = value
        self.changed_at = changed_at
        self.delivered_at = delivered_at

    @property
    def latency_ms(self) -> float:
        if self.changed_at is None:
            return float("nan")
        return self.delivered_at - self.changed_at

    def __repr__(self) -> str:
        return "<Delivery %s %r +%.1fms>" % (
            self.mode, self.value, self.latency_ms,
        )


class SubscriptionHub:
    """Runs polling and push subscriptions over the simulator.

    The poll counters live in the network's shared metrics registry
    under ``sub.*`` (the integer attributes are views); push messages
    are the change bus's ``bus.messages``. Every recorded
    :class:`Delivery` with a known change instant also lands its
    latency in the ``sub.delivery_latency_ms`` histogram.

    Change bookkeeping is the change bus's log (E20): ``note_change``
    appends, the poll path asks the log's latest-change index, and push
    subscribers replay from per-listener cursors."""

    poll_messages = CounterView("sub.poll_messages")
    poll_failures = CounterView("sub.poll_failures")
    poll_denied = CounterView("sub.poll_denied")
    push_withheld = CounterView("sub.push_withheld")
    latency_unknown = CounterView("sub.latency_unknown")

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        server: GupsterServer,
        executor: QueryExecutor,
        bus: Optional[ChangeBus] = None,
        max_deliveries: int = 100_000,
    ) -> None:
        self.sim = sim
        self.network = network
        self.server = server
        self.executor = executor
        if max_deliveries <= 0:
            raise ValueError("max_deliveries must be positive")
        #: Delivery-audit retention: the list keeps the newest
        #: *max_deliveries* entries, dropping the oldest beyond the
        #: cap (``dropped_deliveries`` counts the truncation). The
        #: histograms/counters are unaffected — they aggregate.
        self.max_deliveries = max_deliveries
        self.dropped_deliveries = 0
        self.deliveries: List[Delivery] = []
        #: The network's shared registry — backing store for the
        #: ``sub.*`` counter views and the delivery-latency histogram.
        self.metrics = network.metrics
        self.metrics.counter(
            "sub.poll_messages",
            help="Network messages spent by polling subscriptions.",
        )
        # Polls that failed on network/coverage errors (requirement
        # 13: a flaky store must not kill the polling loop — the next
        # tick simply tries again).
        self.metrics.counter(
            "sub.poll_failures",
            help="Polls lost to transient network/coverage errors.",
        )
        self.metrics.counter(
            "sub.poll_denied",
            help="Polls denied by the shield (the poller cancels).",
        )
        self.metrics.counter(
            "sub.push_withheld",
            help="Push deliveries withheld by a per-delivery shield "
                 "re-check (e.g. after revocation).",
        )
        self.metrics.counter(
            "sub.latency_unknown",
            help="Deliveries whose originating change was never "
                 "logged, so no latency could be recorded.",
        )
        self._latency = self.metrics.histogram(
            "sub.delivery_latency_ms",
            help="Change-delivery latency, both modes (virtual ms).",
        )
        #: The change bus backing note_change / bus subscriptions.
        self.bus = bus if bus is not None else ChangeBus(
            sim, network, origin_node=executor.server_node
        )
        #: value-path -> last value seen by each poller id
        self._poll_state: Dict[int, Optional[str]] = {}
        self._poller_seq = 0
        self._subscriber_seq = 0

    def _record_delivery(self, delivery: Delivery) -> None:
        """Append *delivery*; observe its latency in the shared
        histogram when the change instant is known (stamped at the
        virtual delivery instant), count it unknown otherwise."""
        self.deliveries.append(delivery)
        self.dropped_deliveries += trim_oldest(
            self.max_deliveries, self.deliveries
        )
        if delivery.changed_at is None:
            self.latency_unknown += 1
        else:
            self._latency.observe(
                delivery.latency_ms, now=delivery.delivered_at
            )

    # -- change bookkeeping (stores/benches call this when mutating) -----------

    def note_change(
        self, value_path: str, value: str,
        user_id: Optional[str] = None,
    ) -> None:
        """Record that the profile value at *value_path* changed now —
        an append on the change bus."""
        self.bus.append(value_path, value, user_id=user_id)

    def _changed_at(
        self, value_path: str, value: str
    ) -> Optional[float]:
        """When did the change producing *value* happen? ``None`` when
        the bus never logged it (callers must not fabricate a time)."""
        return self.bus.changed_at(value_path, value)

    # -- polling ------------------------------------------------------------------

    def start_polling(
        self,
        client: str,
        request: Union[str, Path],
        value_path: str,
        context: RequestContext,
        interval_ms: float,
        until: float,
    ) -> None:
        """Poll *request* via chaining every *interval_ms*; deliver when
        the value at *value_path* (within the fragment) changes. A
        poller the shield denies cancels itself — re-paying the fetch
        path every tick for a guaranteed denial buys nothing."""
        path = parse_path(request)
        self._poller_seq += 1
        poller_id = self._poller_seq
        self._poll_state[poller_id] = None
        recurrence: Dict[str, Timer] = {}

        def poll() -> None:
            # Every poll is a full policy-checked fetch.
            try:
                fragment, trace = self.executor.chaining(
                    client, path, context, now=self.sim.now
                )
            except AccessDeniedError:
                self.poll_denied += 1
                holder = recurrence.get("timer")
                if holder is not None:
                    holder.cancel()
                # The poller is dead; drop its state now rather than
                # waiting for the until-sweep.
                self._poll_state.pop(poller_id, None)
                return
            except (NetworkError, GupsterError):
                # Transient outage (all stores down, lost messages):
                # count it and let the next poll tick try again.
                self.poll_failures += 1
                return
            self.poll_messages += trace.hops
            value = None
            if fragment is not None:
                values = evaluate_values(fragment, value_path)
                value = values[0] if values else None
            previous = self._poll_state[poller_id]
            if value is not None and value != previous:
                self._poll_state[poller_id] = value
                delivered_at = self.sim.now + trace.elapsed_ms
                if previous is not None:  # skip the initial snapshot
                    self._record_delivery(
                        Delivery(
                            "poll", value,
                            self._changed_at(value_path, value),
                            delivered_at,
                        )
                    )

        recurrence["timer"] = self.sim.every(
            interval_ms, poll, until=until,
        )
        # Once *until* passes no tick can fire again; without this
        # sweep the poller's last-value entry would outlive it for
        # the hub's whole lifetime (one leaked entry per poller ever
        # started — unbounded on an always-on hub).
        self.sim.schedule_at(
            max(until, self.sim.now) + interval_ms,
            lambda: self._poll_state.pop(poller_id, None),
        )

    # -- push ---------------------------------------------------------------------

    def start_push(
        self,
        client: str,
        request: Union[str, Path],
        value_path: str,
        context: RequestContext,
    ) -> SubscriberListener:
        """Subscribe *client* to changes of *value_path* over the
        change bus: deltas coalesce into waves (one round trip per
        wave), every delta re-checks the shield under the subscriber's
        context — so a revocation stops the stream at the next wave —
        and a crashed client resumes from its cursor. Returns the
        attached listener (detach it to unsubscribe)."""
        path = parse_path(request)
        # The subscribe-time check: a requester the shield rejects
        # never even attaches a listener.
        decision = self.server.pep.enforce(path, context)
        if not decision.permit:
            raise AccessDeniedError(
                "subscription denied for %s" % context.requester
            )
        self._subscriber_seq += 1

        def on_delivery(record: ChangeRecord, now: float) -> None:
            self._record_delivery(
                Delivery("push", record.value, record.at, now)
            )

        def on_withheld(_record: object) -> None:
            self.push_withheld += 1

        listener = SubscriberListener(
            name="push:%s:%d" % (context.requester, self._subscriber_seq),
            node=client,
            pep=self.server.pep,
            request=path,
            watch_path=value_path,
            context=context,
            on_delivery=on_delivery,
            on_withheld=on_withheld,
        )
        self.bus.attach(listener)
        return listener

    # -- reporting -----------------------------------------------------------------

    def deliveries_for(self, mode: str) -> List[Delivery]:
        return [d for d in self.deliveries if d.mode == mode]

    def mean_latency(self, mode: str) -> float:
        """Mean delivery latency over deliveries whose change instant
        is known (NaN when there are none)."""
        picked = [
            d for d in self.deliveries_for(mode)
            if d.changed_at is not None
        ]
        if not picked:
            return float("nan")
        total = math.fsum(d.latency_ms for d in picked)
        return total / len(picked)
