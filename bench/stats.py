"""Sample statistics the benchmark reports.

Every timing is reported as a nearest-rank percentile together with the
number of samples it was taken from; a percentile is only trusted when at
least :data:`TAIL_SAMPLES` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: Samples that must lie beyond a percentile before it is reported.
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(math.ceil(round(p / 100.0 * n, 6)), 1)


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples leave :data:`TAIL_SAMPLES` beyond percentile ``p``."""
    return n - _rank(n, p) >= TAIL_SAMPLES


def drift(samples: Sequence[float]) -> float:
    """Median of the last fifth of ``samples`` over that of the first fifth.

    ``samples`` are in completion order; 1.0 means latency did not change
    over the window.
    """
    fifth = len(samples) // 5
    if fifth < 1:
        raise ValueError("drift needs at least five samples")
    return statistics.median(samples[-fifth:]) / statistics.median(samples[:fifth])


def spread(values: Sequence[float]) -> float:
    """Interquartile distance of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def clip(
    intervals: Sequence[Tuple[float, float]], lo: float, hi: float
) -> List[Tuple[float, float]]:
    """``intervals`` restricted to ``[lo, hi]`` (empty pieces dropped)."""
    return [
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    ]
