"""Order statistics the benchmark reports: medians and tail percentiles.

Timings are reported as a median and a tail percentile, never a mean:
one slow outlier moves a mean but not a rank statistic.  A percentile
is only reported when the sample supports it: ``p90`` needs at least
ten samples beyond its rank, i.e. at least 100 samples.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples a tail percentile needs beyond its rank before it is reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_needed(q: float) -> int:
    """The smallest sample size whose ``q``-th percentile has
    ``MIN_BEYOND`` samples above its rank (100 for ``q=90``)."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    The value returned is one of the samples (rank ``ceil(q/100 * n)``),
    so it is a latency some request actually had.  Raises
    :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples rank
    above it.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples so that "
            f"{MIN_BEYOND} lie beyond it; got {n}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """The sample median (``statistics.median``: midpoint of the two
    middle values for even ``n``)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(values))


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the steadiness
    figure a run-to-run comparison is judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
