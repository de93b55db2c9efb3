"""Order statistics, failure counting and span arithmetic for the benchmark.

Pure Python with no third-party imports, so the arithmetic is testable on its
own (``perfbench/tests``).
"""

import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

# A tail percentile is only reported where at least this many ops lie beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> Tuple[float, float]:
    """Highest percentile of ``values`` with at least ``min_beyond`` values above it.

    Returns ``(value, percentile)``.  In sorted order the value at 0-based
    index ``n - min_beyond - 1`` has exactly ``min_beyond`` values after it;
    its percentile is ``100 * (n - min_beyond) / n``.  A tail is never taken
    below the median: with fewer than ``2 * min_beyond`` values the median is
    returned with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * min_beyond:
        return median(xs), 50.0
    return float(xs[n - min_beyond - 1]), 100.0 * (n - min_beyond) / n


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def count_failures(failures: Iterable[Optional[str]]) -> Tuple[int, int]:
    """(attempted, failed) from one entry per op: None if it passed, else why."""
    attempted = failed = 0
    for reason in failures:
        attempted += 1
        if reason is not None:
            failed += 1
    return attempted, failed


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped: List[Tuple[float, float]] = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered(start, end, children)
