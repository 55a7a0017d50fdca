"""Order statistics for the benchmark's timings (standard library only)."""

from __future__ import annotations

import statistics
from typing import Sequence

#: a tail percentile is reported only where this many samples rank above it
TAIL_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples above it.

    Returns ``(percentile, value, n_beyond)``. With n sorted samples the
    nearest-rank percentile p sits at rank ceil(p * n / 100), which leaves
    n - rank samples above it; the highest p leaving ``TAIL_BEYOND`` of them
    is rank n - TAIL_BEYOND, i.e. p = 100 * (n - TAIL_BEYOND) / n. With
    ``TAIL_BEYOND`` or fewer samples no percentile qualifies, and the
    maximum is returned as the 100th percentile with nothing beyond it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1], TAIL_BEYOND


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
