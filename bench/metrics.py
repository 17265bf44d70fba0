"""Latency percentiles with the tail-count rule, and small statistics."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples above it.
MIN_TAIL = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return math.ceil(round(q * n, 9))


def min_samples(q: float, tail: int = MIN_TAIL) -> int:
    """Fewest samples for which the nearest-rank q-quantile has ``tail`` above it."""
    n = 1
    while n - rank(q, n) < tail:
        n += 1
    return n


def percentile(samples, q: float, tail: int = MIN_TAIL) -> float:
    """Nearest-rank q-quantile of ``samples``; ``inf`` marks a failed request.

    A failed request ranks slower than every success. Raises ValueError
    when fewer than ``tail`` samples lie above the quantile's rank.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = rank(q, n)
    if n == 0 or n - k < tail:
        raise ValueError(
            f"{n} samples leave {max(n - k, 0)} above the {q:g} quantile; "
            f"{min_samples(q, tail)} are needed for {tail}"
        )
    return ordered[max(k, 1) - 1]
