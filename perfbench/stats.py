"""Order statistics the benchmark reports, and the steadiness arithmetic.

A timing is reported as its median and its 99th percentile, and the
99th percentile is only reported when at least ten samples lie beyond
it (``samples_beyond``), so the tail is an observation, not one outlier.
"""

from __future__ import annotations

import math
import statistics

#: The tail percentile every latency metric reports.
TAIL = 0.99

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Consecutive samples per block of the block median (see
#: :func:`block_median`): a tenth to a fifth of a second of contracts.
BLOCK = 200


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile in ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return max(1, math.ceil(round(q * n, 9)))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return n - rank(n, q)


def min_samples(q: float = TAIL, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples past ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def highest_supported(n: int, beyond: int = MIN_BEYOND) -> float:
    """Highest percentile (as a fraction, in steps of 0.001) that keeps
    ``beyond`` samples past it in ``n`` samples; 0.0 if none does."""
    best = 0.0
    for permille in range(1, 1000):
        q = permille / 1000
        if samples_beyond(n, q) >= beyond:
            best = q
    return best


def block_median(values: list[float], block: int = BLOCK) -> float:
    """Mean of the medians of consecutive full blocks of ``block``
    samples (the plain median when there is no full block).

    On a host whose speed switches between a fast and a slow state for
    seconds at a time, a run's latencies have one mode per state and
    the plain median jumps to whichever mode holds more samples; the
    block median moves in proportion to the time spent in each.
    """
    blocks = [
        statistics.median(values[start:start + block])
        for start in range(0, len(values) - block + 1, block)
    ]
    return statistics.mean(blocks) if blocks else statistics.median(values)


def latency_summary(seconds: list[float]) -> dict:
    """p50 (:func:`block_median`) and the pooled nearest-rank p99 in
    milliseconds, from samples in the order they were taken, next to
    the pooled median and the sample count.

    Raises:
        ValueError: If the sample leaves fewer than ten samples beyond
            the 99th percentile.
    """
    n = len(seconds)
    if samples_beyond(n, TAIL) < MIN_BEYOND:
        raise ValueError(
            f"{n} latency samples leave fewer than {MIN_BEYOND} beyond "
            f"p{TAIL * 100:g}; need at least {min_samples()}"
        )
    ordered = sorted(seconds)
    return {
        "p50_ms": block_median(seconds) * 1e3,
        "p99_ms": ordered[rank(n, TAIL) - 1] * 1e3,
        "p50_pooled_ms": ordered[rank(n, 0.5) - 1] * 1e3,
        "samples": n,
        "beyond_p99": samples_beyond(n, TAIL),
        "highest_supported": highest_supported(n),
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and the two relative spreads of repeated runs.

    ``iqr_ratio`` is the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) over the median;
    ``range_ratio`` is ``(max - min) / median``.
    """
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_ratio": (q3 - q1) / scale,
        "range_ratio": (max(values) - min(values)) / scale,
        "runs": len(values),
    }
