"""Deterministic discrete-event engine.

Time-driven experiments (cache staleness in E7, polling vs push in E12,
location-update churn, the E16 fault schedules) need events that fire at
simulated instants. This engine is a classic event heap: callbacks
scheduled at future virtual times, executed in timestamp order.
Determinism matters — two events at the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so runs
are exactly reproducible.

Cancellation is lazy but bounded: a cancelled timer stays in the heap
until it would fire *or* until cancelled entries exceed half the heap,
at which point the heap is compacted in one pass. Compaction preserves
the (when, sequence) total order, so execution order — and therefore
every simulated measurement — is unchanged by when (or whether) a
compaction happens.

The engine is not re-entrant: :meth:`Simulator.step` and
:meth:`Simulator.run` raise ``RuntimeError`` when called from inside a
dispatched callback. A nested drain would pop the heap under a frame
that still holds the old clock, so it fails at the call instead.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "Timer"]

#: Never bother compacting heaps smaller than this.
_COMPACT_MIN_HEAP = 8


class Timer:
    """Handle to a scheduled event; allows cancellation."""

    __slots__ = ("when", "cancelled", "_sim", "_live")

    def __init__(self, when: float, sim: Optional["Simulator"] = None):
        self.when = when
        self.cancelled = False
        #: Owning simulator (None for synthetic handles such as the
        #: recurrence holder returned by :meth:`Simulator.every`).
        self._sim = sim
        #: True while this timer's entry is physically in the heap.
        self._live = sim is not None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None and self._live:
            self._sim._note_cancelled()


class Simulator:
    """An event heap with a virtual clock (milliseconds)."""

    def __init__(self):
        self.now: float = 0.0
        #: Pending events only: step() pops every entry it dispatches
        #: (the drain loop lives in the experiment harness, outside
        #: the analyzed tree), and cancelled entries compact at 50%.
        self._heap: List[Tuple[float, int, Timer, Callable, tuple]] = []
        self._sequence = 0
        self._processed = 0
        #: Cancelled entries still physically present in the heap.
        self._cancelled = 0
        self._compactions = 0
        #: True while step() runs a callback (re-entry guard).
        self._dispatching = False

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> Timer:
        """Run ``callback(*args)`` after *delay* ms of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        timer = Timer(self.now + delay, self)
        self._sequence += 1
        heapq.heappush(
            self._heap,
            (timer.when, self._sequence, timer, callback, args),
        )
        return timer

    def schedule_at(
        self, when: float, callback: Callable, *args: Any
    ) -> Timer:
        """Run ``callback(*args)`` at absolute virtual time *when*."""
        return self.schedule(when - self.now, callback, *args)

    def every(
        self,
        interval: float,
        callback: Callable,
        *args: Any,
        until: Optional[float] = None,
    ) -> Timer:
        """Run ``callback(*args)`` every *interval* ms, optionally until
        an absolute time (inclusive). Returns a handle whose
        cancellation stops the recurrence. When even the *first*
        occurrence would land past *until*, nothing is scheduled."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        holder = Timer(self.now + interval)

        def tick():
            if holder.cancelled:
                return
            callback(*args)
            next_when = self.now + interval
            if until is None or next_when <= until:
                inner = self.schedule(interval, tick)
                holder.when = inner.when

        # Guard the first occurrence too: a recurrence must never fire
        # past its *until* bound, even when interval > until - now.
        if until is None or self.now + interval <= until:
            inner = self.schedule(interval, tick)
            holder.when = inner.when
        else:
            holder.cancelled = True  # nothing will ever fire
        return holder

    # -- cancellation bookkeeping -------------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries in one pass. Heapifying the filtered
        list preserves the (when, sequence) total order, so execution
        order is untouched — determinism is preserved."""
        survivors = []
        for item in self._heap:
            if item[2].cancelled:
                item[2]._live = False
            else:
                survivors.append(item)
        self._heap = survivors
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1

    # -- execution ----------------------------------------------------------

    def _refuse_reentry(self, method: str) -> None:
        if self._dispatching:
            raise RuntimeError(
                "Simulator.%s() called from inside a dispatched "
                "callback: the engine is not re-entrant" % method
            )

    def step(self) -> bool:
        """Execute the next pending event. Returns False when idle."""
        self._refuse_reentry("step")
        while self._heap:
            when, _seq, timer, callback, args = heapq.heappop(self._heap)
            timer._live = False
            if timer.cancelled:
                self._cancelled -= 1
                continue
            self.now = when
            self._dispatching = True
            try:
                callback(*args)
            finally:
                self._dispatching = False
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Execute events until the heap drains or *until* is reached.

        With *until* set, the clock is left exactly at *until* even if
        the last event fired earlier (so measurements line up)."""
        self._refuse_reentry("run")
        while self._heap:
            when = self._heap[0][0]
            if until is not None and when > until:
                break
            self.step()
        if until is not None and self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        """Live (non-cancelled) scheduled events — O(1)."""
        return len(self._heap) - self._cancelled

    @property
    def processed(self) -> int:
        return self._processed

    @property
    def compactions(self) -> int:
        """How many lazy heap compactions have run (observability)."""
        return self._compactions
