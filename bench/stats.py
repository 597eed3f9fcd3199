"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

# Percentiles the tail rule may report, lowest first.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def percentile(samples: Sequence[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples rank above the p-th percentile."""
    return n - math.ceil(Fraction(str(p)) * n / 100)


def tail_percentile(samples: Sequence[float], min_beyond: int = 10) -> Optional[tuple[float, float]]:
    """The highest percentile with at least `min_beyond` samples beyond it.

    Returns (p, value), or None when even the median has too few samples
    beyond it to be told apart from noise.
    """
    usable = [p for p in TAIL_PERCENTILES if samples_beyond(len(samples), p) >= min_beyond]
    if not usable:
        return None
    return usable[-1], percentile(samples, usable[-1])
