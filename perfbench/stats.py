"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first, each with the
#: sample size from which one sample in that many lies beyond it.
REPORTABLE = ((0.50, 2), (0.90, 10), (0.99, 100), (0.999, 1000),
              (0.9999, 10_000))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile of an already sorted sample
    (0.0 for an empty one, so an idle layer reads as zero)."""
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_quantile(n: int) -> Optional[float]:
    """The highest reportable percentile with at least ten samples
    beyond it (choosing-metrics guide, section 1); None when even the
    median has fewer."""
    best = None
    for q, one_in in REPORTABLE:
        if n >= 10 * one_in:
            best = q
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes
    them: ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
