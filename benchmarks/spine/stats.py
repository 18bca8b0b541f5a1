"""Small numeric helpers shared by the harness, the bootstrap and the
compare tool."""

from __future__ import annotations

import statistics
import time
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (``q`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = int(round(q * (len(ordered) - 1)))
    return ordered[max(0, min(len(ordered) - 1, rank))]


def median(samples: Sequence[float]) -> float:
    """0.0 for no samples: a layer the workload never entered."""
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def interquartile_mean(samples: Sequence[float]) -> float:
    """Mean of the middle half: keeps the shape of a two-mode
    distribution (cache hit / miss) that a median would snap to one
    side of, and drops the outliers a mean would follow."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return mean(ordered[quarter:len(ordered) - quarter])


#: Iterations of the fixed pure-Python reference loop, and what one
#: pass costs on the nominal host every time-based metric is scaled to.
REFERENCE_OPS = 10_000
REFERENCE_LOOP_US = 750.0


def reference_loop_us() -> float:
    """One timed pass of the reference loop: the yardstick for how
    fast this host runs Python *right now* (ROADMAP item 1's
    normaliser)."""
    started = time.perf_counter_ns()  # gupcheck: ignore[determinism] -- host speed is what is measured
    accumulator = 0
    for index in range(REFERENCE_OPS):
        accumulator = (accumulator * 31 + index) % 1_000_003
    return (time.perf_counter_ns() - started) / 1000.0  # gupcheck: ignore[determinism] -- host speed is what is measured


def calibration_ops_per_s(rounds: int = 20) -> float:
    """The reference loop's best rate: the score for comparing runs
    taken on different hosts."""
    best_us = min(reference_loop_us() for _ in range(rounds))
    return REFERENCE_OPS / (best_us / 1e6)
