"""Small statistics helpers shared by the runner, the gate and the tests."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile with linear interpolation between ranks.

    ``fraction`` is in [0, 1]; an empty input raises ValueError so a
    metric can never silently read 0.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values: Sequence[float]) -> float:
    """The median (ValueError on no samples, like :func:`percentile`)."""
    return percentile(values, 0.5)


def median_or_none(values: Sequence[float]) -> Optional[float]:
    """The median, or None when a class had no samples on this workload."""
    return median(values) if values else None


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same statistic the driver applies to ten seeds: quartiles from
    ``statistics.quantiles(values, n=4)``.  Fewer than two values carry
    no spread information and read 0.
    """
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return abs(third - first) / abs(middle) if middle else 0.0


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (ties share the mean of the ranks they span)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        shared = (start + end) / 2.0 + 1.0
        for position in range(start, end + 1):
            ranks[order[position]] = shared
        start = end + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation; None when either side is constant."""
    if len(xs) != len(ys) or len(xs) < 2:
        return None
    rx, ry = _ranks(xs), _ranks(ys)
    mean_x, mean_y = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / (var_x * var_y) ** 0.5
