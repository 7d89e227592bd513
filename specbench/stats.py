"""Summary statistics with the benchmark's sample-count rules."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it is the maximum of a handful of values.
MIN_TAIL_SAMPLES = 10
#: ``decide_ms_p90`` additionally needs a pool of at least this size.
MIN_P90_POOL = 100


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(
    values: Sequence[float], q: float, min_pool: int = 0
) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when the pool is smaller than
    ``min_pool`` or fewer than :data:`MIN_TAIL_SAMPLES` lie beyond it."""
    n = len(values)
    if n < max(min_pool, 1) or samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)

