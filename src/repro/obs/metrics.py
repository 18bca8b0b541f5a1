"""The metrics registry: named counters, gauges and histograms.

Before this module, operational counters were scattered as ad-hoc
integer attributes across :class:`~repro.simnet.ResilienceCounters`,
:class:`~repro.core.cache.ComponentCache` and
:class:`~repro.core.resilience.EndpointHealth` — each with its own
reset/reporting conventions, none exportable, and (as the E18 audit
showed) each hiding at least one accounting bug. The registry gives
every instrument a **name** in a dotted scheme (``net.retries``,
``cache.hits``, ``health.successes``, ``sub.delivery_latency_ms``), a
single snapshot/export surface (:mod:`repro.obs.export`), and — for
histograms — fixed buckets windowed on **virtual** time (the simulator
clock; nothing here ever reads the wall clock, per the determinism
rule).

The pre-existing attribute APIs (``cache.hits``,
``counters.retries``…) survive as *views*: properties reading the
registry-backed instrument, so every caller and test written against
the old counters keeps working unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple,
    Union,
)

__all__ = [
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

#: Default fixed buckets for latency histograms (ms, virtual time).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0,
)


class Counter:
    """A monotonically *usable* counter (reset/set exist only to back
    the legacy attribute views, which the old code wrote directly)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    def set(self, value: int) -> None:
        """Legacy-view escape hatch (``counters.retries = 0``)."""
        self._value = value

    def reset(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return "<Counter %s=%d>" % (self.name, self._value)


class Gauge:
    """A point-in-time value; optionally computed by a callback (e.g.
    live cache size), so the exporter always sees the truth without the
    instrumented object having to update the gauge on every mutation."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("gauge %s is callback-backed" % self.name)
        self._value = value

    def bind(self, fn: Optional[Callable[[], float]]) -> None:
        """(Re)attach the value callback — used when an instrumented
        object re-homes onto a shared registry and must take over an
        existing gauge name."""
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0.0

    def __repr__(self) -> str:
        return "<Gauge %s=%s>" % (self.name, self.value)


class Histogram:
    """Fixed-bucket histogram over virtual time.

    ``buckets`` are inclusive upper bounds in ascending order; an
    implicit +inf bucket catches the rest. :meth:`observe` takes the
    observation *and* (optionally) the virtual timestamp it happened
    at; :meth:`reset_window` closes the current window (returning its
    snapshot) and starts a new one at the given virtual instant —
    that is how a benchmark reports per-phase latency distributions
    without a wall clock anywhere.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count",
                 "window_start_ms", "last_observed_at_ms")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        help: str = "",
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        ordered = tuple(sorted(float(b) for b in buckets))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate bucket bounds")
        self.name = name
        self.help = help
        self.buckets = ordered
        self._counts = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0
        #: Virtual instant the current window opened.
        self.window_start_ms = 0.0
        #: Virtual instant of the latest observation (for windowing).
        self.last_observed_at_ms = 0.0

    def observe(self, value: float, now: Optional[float] = None) -> None:
        index = bisect_left(self.buckets, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        if now is not None and now > self.last_observed_at_ms:
            self.last_observed_at_ms = now

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, Prometheus-style,
        ending with (+inf, total)."""
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self._count))
        return pairs

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile (the
        standard fixed-bucket approximation); 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self._count:
            return 0.0
        target = q * self._count
        cumulative = 0
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return float("inf")

    def reset_window(self, now: float) -> Dict[str, object]:
        """Close the current window: return its snapshot and zero the
        histogram, stamping the new window's virtual start."""
        snapshot = self.to_dict()
        snapshot["window_start_ms"] = self.window_start_ms
        snapshot["window_end_ms"] = now
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self.window_start_ms = now
        return snapshot

    def reset(self) -> None:
        self.reset_window(0.0)
        self.window_start_ms = 0.0
        self.last_observed_at_ms = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "buckets": {
                ("+inf" if bound == float("inf") else repr(bound)): n
                for bound, n in self.bucket_counts()
            },
        }

    def __repr__(self) -> str:
        return "<Histogram %s n=%d mean=%.2f>" % (
            self.name, self._count, self.mean,
        )


#: Any registered instrument.
Instrument = Union[Counter, Gauge, Histogram]


class CounterView:
    """Descriptor exposing a registry counter as a plain ``int``
    attribute — how the pre-registry accounting APIs
    (``cache.hits``, ``counters.retries``, ``health`` totals…) stay
    source-compatible: reads come from the instrument, writes
    (``cache.hits = 0`` in old tests) pass through to it.

    The host object must expose its registry under *registry_attr*
    (default ``"metrics"``)."""

    __slots__ = ("_metric", "_registry_attr")

    def __init__(self, metric: str, registry_attr: str = "metrics") -> None:
        self._metric = metric
        self._registry_attr = registry_attr

    def _registry(self, obj: object) -> "MetricsRegistry":
        registry = getattr(obj, self._registry_attr)
        assert isinstance(registry, MetricsRegistry)
        return registry

    def __get__(self, obj: object, objtype: object = None) -> int:
        if obj is None:
            raise AttributeError(self._metric)
        return self._registry(obj).counter(self._metric).value

    def __set__(self, obj: object, value: int) -> None:
        self._registry(obj).counter(self._metric).set(value)


class _Instrumented(Protocol):  # pragma: no cover - what adopt() asks
    metrics: "MetricsRegistry"

    def _register_instruments(self) -> None: ...


class MetricsRegistry:
    """Name → instrument, with get-or-create semantics.

    Re-requesting a name returns the existing instrument (so views and
    exporters share state); re-requesting it as a *different kind* is a
    programming error and raises.
    """

    def __init__(self) -> None:
        # gupcheck: bounded[metric-vocab] -- keyed by metric name; the vocabulary is static code
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(
        self, name: str, kind: type, factory: Callable[[], Instrument]
    ) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    "metric %r already registered as %s"
                    % (name, type(existing).__name__)
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._get_or_create(
            name, Counter, lambda: Counter(name, help)
        )
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        instrument = self._get_or_create(
            name, Gauge, lambda: Gauge(name, help, fn)
        )
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        help: str = "",
    ) -> Histogram:
        instrument = self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help)
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def adopt(self, owner: _Instrumented, counters: Iterable[str]) -> None:
        """Re-home *owner* onto this registry — the whole of an
        owner's ``bind_registry``: swap its ``metrics``, have it
        re-register its instruments here, carry over the non-zero
        totals of its *counters*. A no-op when it already lives here."""
        previous = owner.metrics
        if previous is self:
            return
        owner.metrics = self
        owner._register_instruments()
        for name in counters:
            carried = previous.counter(name).value
            if carried:
                self.counter(name).inc(carried)

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def reset(self) -> None:
        """Zero every instrument (callback gauges are left alone)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The JSON-ready state of every instrument, sorted by name —
        the format ``benchmarks/results/*_metrics.json`` records."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.to_dict()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def __repr__(self) -> str:
        return "<MetricsRegistry %d instrument(s)>" % len(self)
