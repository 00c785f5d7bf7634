"""Order statistics used by the benchmark's reports.

Quartiles follow Python's ``statistics.quantiles(values, n=4)`` (the
"exclusive" method), so a spread computed here matches one computed by
anyone re-reading the ledger with the standard library.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sample."""
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) of a sample; a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_frac(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``. With ``n`` samples that is the
    ``100 * (n - beyond) / n``-th percentile, the ``(n - beyond)``-th
    smallest sample. A sample of ``beyond`` or fewer values has no such
    percentile; its maximum is reported as the 100th.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return 100.0, xs[-1]
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


def summary(values):
    """Median, quartiles, min and max of a sample, for the ledger."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }
