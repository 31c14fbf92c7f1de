"""Order statistics used by the report."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie strictly above its rank.

    For ``n`` samples the value is the ``ceil(fraction * n)``-th smallest;
    the second element is ``n - rank``, the sample count that supports
    the percentile (a tail estimate wants at least ten).
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

