"""Failure-aware query execution primitives (requirement 13 / E16).

The paper calls the public internet "the weakest link" and argues the
mirrored meta-data constellation by its availability under mirror
failure — so the query engine must *measure* behaviour under failure
rather than crash on the first dead store. This module holds the three
building blocks shared by :class:`~repro.core.query.QueryExecutor` and
the Section 5.1 MDM topologies:

* :class:`RetryPolicy` — bounded retry with exponential backoff. One
  *attempt* is a full sweep over the available choices (mirrors or
  ``||`` store alternatives); between sweeps the operation waits an
  exponentially growing backoff, charged to the trace as idle time.
* :class:`EndpointHealth` — per-endpoint consecutive-failure tracking.
  Healthy endpoints keep their referral order (stable sort), endpoints
  with recent failures sink to the back of the choice list, so a
  flapping mirror stops being the first thing every client runs into.
* :class:`PartStatus` — the per-part delivery report degradable
  patterns (chaining/cached) attach to the trace when they return a
  partial merge instead of throwing away the parts that *did* arrive.

With no failures none of this changes a single sampled latency: sweeps
iterate choices in referral order, no backoff is charged and every
counter stays zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.errors import NodeUnreachableError, PacketLossError
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.pxml import Path

__all__ = [
    "RetryPolicy",
    "EndpointHealth",
    "PartStatus",
    "TRANSIENT_ERRORS",
]

#: Failures worth retrying/failing over: a dead endpoint or a lost
#: message. Policy/schema/coverage errors are *not* transient — they
#: propagate immediately.
TRANSIENT_ERRORS = (NodeUnreachableError, PacketLossError)


class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_attempts`` counts full sweeps over the choice set, so
    ``max_attempts=1`` reproduces the historical first-error-wins
    behaviour (failover between choices, but no re-sweep)."""

    __slots__ = (
        "max_attempts", "base_backoff_ms", "multiplier", "max_backoff_ms",
    )

    def __init__(
        self,
        max_attempts: int = 2,
        base_backoff_ms: float = 25.0,
        multiplier: float = 2.0,
        max_backoff_ms: float = 400.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if base_backoff_ms < 0 or max_backoff_ms < 0:
            raise ValueError("backoff must be non-negative")
        if multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        self.max_attempts = max_attempts
        self.base_backoff_ms = base_backoff_ms
        self.multiplier = multiplier
        self.max_backoff_ms = max_backoff_ms

    @classmethod
    def none(cls) -> "RetryPolicy":
        """First-error-wins: one sweep, no backoff."""
        return cls(max_attempts=1, base_backoff_ms=0.0)

    def backoff_ms(self, retry_number: int) -> float:
        """Backoff before retry *retry_number* (1-based), capped at
        ``max_backoff_ms`` — a real-transport retry loop must never be
        asked to sleep for minutes because the exponent ran away."""
        if retry_number < 1:
            raise ValueError("retry numbers are 1-based")
        if self.base_backoff_ms == 0.0:
            return 0.0
        try:
            raw = self.base_backoff_ms * (
                self.multiplier ** (retry_number - 1)
            )
        except OverflowError:
            # The uncapped value overflowed a float; the cap is the
            # answer either way.
            return self.max_backoff_ms
        return min(raw, self.max_backoff_ms)

    def __repr__(self) -> str:
        return (
            "<RetryPolicy attempts=%d backoff=%.0fms x%.1f cap=%.0fms>"
            % (self.max_attempts, self.base_backoff_ms,
               self.multiplier, self.max_backoff_ms)
        )


class EndpointHealth:
    """Consecutive-failure tracking per endpoint (store or mirror).

    ``order`` is a *stable* sort by failure count: with no recorded
    failures the input order — the referral's preference order — is
    returned unchanged, so health tracking is invisible on the happy
    path.

    Accounting (E18 audit): success totals used to accumulate in a
    per-endpoint ``_successes`` dict that **nothing ever read** — one
    key per endpoint ever seen, growing without bound under
    million-user churn, invisible to :meth:`snapshot`. The ranking
    logic only ever needed the *consecutive-failure* map (success just
    clears an endpoint's entry), so the per-endpoint success history
    is folded into two registry counters — ``health.successes`` /
    ``health.failures`` fleet totals, readable via :meth:`stats` and
    every exporter — and the only per-endpoint state left is the
    suspect map, which successes shrink."""

    __slots__ = ("_failures", "metrics")

    successes = CounterView("health.successes")
    failures_recorded = CounterView("health.failures")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: endpoint -> consecutive failures; an entry exists only
        #: while the endpoint is suspect (bounded by fleet size, and
        #: emptied as endpoints recover).
        self._failures: Dict[str, int] = {}
        self.metrics = (
            registry if registry is not None else MetricsRegistry()
        )
        self._register_instruments()

    def _register_instruments(self) -> None:
        self.metrics.counter(
            "health.successes", help="Successful endpoint probes."
        )
        self.metrics.counter(
            "health.failures", help="Failed endpoint probes."
        )
        self.metrics.gauge(
            "health.suspects", help="Endpoints currently suspect.",
            fn=self._suspect_count,
        ).bind(self._suspect_count)

    def _suspect_count(self) -> float:
        return float(len(self._failures))

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Re-home onto a shared world registry, migrating totals
        (see :meth:`repro.core.cache.ComponentCache.bind_registry`)."""
        registry.adopt(self, ("health.successes", "health.failures"))

    def failure(self, endpoint: str) -> None:
        self._failures[endpoint] = self._failures.get(endpoint, 0) + 1
        self.failures_recorded += 1

    def success(self, endpoint: str) -> None:
        self._failures.pop(endpoint, None)
        self.successes += 1

    def consecutive_failures(self, endpoint: str) -> int:
        return self._failures.get(endpoint, 0)

    def is_suspect(self, endpoint: str) -> bool:
        return self.consecutive_failures(endpoint) > 0

    def order(self, choices: Sequence[str]) -> List[str]:
        """Choices re-ranked healthy-first; ties keep input order."""
        if not self._failures:
            return list(choices)
        return sorted(choices, key=self.consecutive_failures)

    def snapshot(self) -> Dict[str, int]:
        """endpoint -> consecutive failures (only suspect endpoints)."""
        return dict(self._failures)

    def stats(self) -> Dict[str, int]:
        """Fleet totals + suspect count (the state the dead
        ``_successes`` dict was hoarding per endpoint, now bounded)."""
        return {
            "successes": self.successes,
            "failures": self.failures_recorded,
            "suspects": len(self._failures),
        }

    def __repr__(self) -> str:
        return "<EndpointHealth suspects=%s>" % (self.snapshot() or "{}")


class PartStatus:
    """Delivery report for one referral part of a degradable query."""

    __slots__ = ("path", "store", "ok", "error", "stale")

    def __init__(
        self,
        path: Union[str, Path],
        store: Optional[str] = None,
        ok: bool = True,
        error: Optional[BaseException] = None,
        stale: bool = False,
    ) -> None:
        #: The part's (permitted) path.
        self.path = path
        #: Store that served it (None when the part failed).
        self.store = store
        self.ok = ok
        #: The terminal exception when the part failed.
        self.error = error
        #: True when the answer came from an expired cache entry.
        self.stale = stale

    def __repr__(self) -> str:
        if self.ok:
            extra = " STALE" if self.stale else ""
            return "<PartStatus %s ok via %s%s>" % (
                self.path, self.store, extra,
            )
        return "<PartStatus %s FAILED (%s)>" % (
            self.path,
            type(self.error).__name__ if self.error else "unknown",
        )
