"""Sample statistics the benchmark reports."""

from __future__ import annotations

import math

# tail percentiles tried.  The ladder stops at p90 so that a faster
# program, which completes more solves in the same run, is still measured
# at the same percentile.
TAIL_LADDER = (50, 90)
MIN_BEYOND = 10


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int:
    """Highest ladder percentile with at least ``min_beyond`` of ``n`` samples above it.

    That is p90 from 100 samples on, else the median, which is also the
    fallback below 20 samples so that the tail never rests on a handful.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100 - p) >= 100 * min_beyond:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50)
