"""Order statistics for the benchmark's reports.

A tail percentile is only reported when at least ten samples lie beyond
it, so p99 needs 1000 samples; with fewer the rule refuses rather than
reporting a value that one outlier decides.
"""

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples beyond ``q``."""
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """``percentile(values, q)``, refused when too few samples lie beyond it."""
    need = min_samples_for(q)
    if len(values) < need:
        raise ValueError(f"p{q:g} needs at least {need} samples "
                         f"({MIN_BEYOND} beyond it), got {len(values)}")
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
