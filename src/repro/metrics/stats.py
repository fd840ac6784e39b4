"""Summary statistics without external dependencies.

Kept dependency-free so the core library needs nothing beyond the
standard library; numpy is only used by benchmarks that already
require the test extras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import ConfigurationError


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigurationError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or ordered[low] == ordered[high]:
        return ordered[low]
    frac = rank - low
    # low + (high-low)*frac keeps the result exactly within the data
    # bounds (the symmetric form can drift a ulp below the minimum).
    return ordered[low] + (ordered[high] - ordered[low]) * frac


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of one metric."""

    count: int
    mean: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "Summary":
        data = list(values)
        if not data:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(data),
            mean=sum(data) / len(data),
            minimum=min(data),
            p50=percentile(data, 50),
            p90=percentile(data, 90),
            p99=percentile(data, 99),
            maximum=max(data),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} min={self.minimum:.3f} "
            f"p50={self.p50:.3f} p90={self.p90:.3f} p99={self.p99:.3f} "
            f"max={self.maximum:.3f}"
        )


def ratio(part: float, whole: float) -> float:
    """Safe division: 0 when the denominator is 0."""
    return part / whole if whole else 0.0
