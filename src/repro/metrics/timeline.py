"""Windowed time series: rates and counts over simulation time.

Turns trace events into printable figure series — e.g. deliveries per
second before/during/after a DoS window (the E4 timeline figure), or
bytes per second during convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.sim.trace import TraceEvent, TraceLog


@dataclass(frozen=True)
class TimeBucket:
    """One window of a time series."""

    start: float
    end: float
    count: int
    total: float  # sum of the sampled value (== count when value is 1)

    @property
    def rate(self) -> float:
        width = self.end - self.start
        return self.count / width if width > 0 else 0.0

    @property
    def mean_value(self) -> float:
        return self.total / self.count if self.count else 0.0


def bucketize(
    times_and_values: Iterable[tuple[float, float]],
    window: float,
    start: float = 0.0,
    end: Optional[float] = None,
) -> list[TimeBucket]:
    """Group (time, value) samples into fixed-width windows.

    Windows cover ``[start, end)``; ``end`` defaults to the last sample.
    Empty windows are included so gaps (e.g. a dead origin) are visible.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    samples = sorted(times_and_values)
    if end is None:
        end = samples[-1][0] + window if samples else start + window
    if end <= start:
        raise ConfigurationError("end must be after start")
    num_buckets = max(1, math.ceil((end - start) / window))
    counts = [0] * num_buckets
    totals = [0.0] * num_buckets
    for time, value in samples:
        if time < start or time >= end:
            continue
        index = min(num_buckets - 1, int((time - start) / window))
        counts[index] += 1
        totals[index] += value
    return [
        TimeBucket(
            start=start + index * window,
            end=min(end, start + (index + 1) * window),
            count=counts[index],
            total=totals[index],
        )
        for index in range(num_buckets)
    ]


def event_timeline(
    trace: TraceLog,
    kind: str,
    window: float,
    value: Optional[Callable[[TraceEvent], float]] = None,
    start: float = 0.0,
    end: Optional[float] = None,
) -> list[TimeBucket]:
    """Bucketize a trace kind; ``value`` extracts the sampled quantity
    (defaults to 1 per event, i.e. an event-rate series)."""
    sample = value if value is not None else (lambda event: 1.0)
    return bucketize(
        ((event.time, sample(event)) for event in trace.events(kind)),
        window=window,
        start=start,
        end=end,
    )


def sparkline(buckets: Sequence[TimeBucket], width: int = 60) -> str:
    """A terminal mini-figure of the bucket counts.

    Buckets are resampled onto ``width`` columns; block characters give
    an at-a-glance shape (the closest a text report gets to a figure).
    """
    if not buckets:
        return ""
    blocks = " ▁▂▃▄▅▆▇█"
    counts = [bucket.count for bucket in buckets]
    if len(counts) > width:
        # Average adjacent buckets down to the target width.
        chunk = len(counts) / width
        counts = [
            sum(counts[int(i * chunk):max(int(i * chunk) + 1, int((i + 1) * chunk))])
            / max(1, len(counts[int(i * chunk):max(int(i * chunk) + 1, int((i + 1) * chunk))]))
            for i in range(width)
        ]
    peak = max(counts) or 1
    return "".join(
        blocks[min(len(blocks) - 1, int(count / peak * (len(blocks) - 1)))]
        for count in counts
    )
