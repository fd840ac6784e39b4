"""Counters, gauges and histograms for the protocol layers.

A :class:`MetricsRegistry` is the streaming complement of the trace:
where the trace records *events*, the registry accumulates *aggregates*
— gossip rounds, anti-entropy delta bytes, Bloom-filter tests and
hits, queue depths — in O(1) memory per metric regardless of run
length.  Protocol layers look their instruments up once at
construction time and then pay a single attribute increment per
observation, so the hot paths stay hot.

Naming scheme (see ``docs/OBSERVABILITY.md``): ``<layer>.<thing>`` with
an optional unit suffix, e.g. ``gossip.rounds``, ``gossip.delta_bytes``,
``bloom.tests``, ``queue.depth_max``.

Nothing here touches a random stream or schedules simulation events, so
enabling metrics can never perturb a fixed-seed run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.errors import ConfigurationError

#: Default histogram bucket upper bounds — tuned for latencies in
#: seconds (sub-ms LAN hops up to minutes-long convergence tails).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 60.0, 120.0, 300.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total in (parallel-worker aggregation)."""
        self.value += other.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that goes up and down; also remembers its high-water mark."""

    __slots__ = ("name", "value", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def add(self, amount: float) -> None:
        self.set(self.value + amount)

    def merge(self, other: "Gauge") -> None:
        """Fold a *later* gauge in: its value wins, maxima combine.

        Merging per-worker registries in canonical cell order with
        last-value-wins reproduces exactly what a serial run would have
        left behind (the last cell's value, the global high-water mark).
        """
        self.value = other.value
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, max={self.maximum})"


class HistogramData:
    """Fixed-bucket distribution aggregate: O(len(buckets)) memory.

    ``buckets`` are upper bounds of half-open ranges; observations above
    the last bound land in an implicit overflow bucket.  Quantiles are
    linearly interpolated within the containing bucket — accurate to a
    bucket width, which is all a streaming run can promise (exact
    percentiles need the retained-event :class:`~repro.obs.sinks.MemorySink`).
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        ordered = tuple(sorted(bounds))
        if not ordered:
            raise ConfigurationError("histogram needs at least one bucket bound")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each value in order (so ``total`` sums identically)."""
        bounds, counts = self.bounds, self.counts
        count, total = self.count, self.total
        minimum, maximum = self.minimum, self.maximum
        for value in values:
            count += 1
            total += value
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
            counts[bisect_left(bounds, value)] += 1
        self.count, self.total = count, total
        self.minimum, self.maximum = minimum, maximum

    def merge(self, other: "HistogramData") -> None:
        """Fold another histogram's buckets in (same bounds required)."""
        if other.bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                low = self.bounds[index - 1] if index > 0 else self.minimum
                high = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.maximum
                )
                low = max(low, self.minimum)
                high = min(high, self.maximum)
                if high <= low:
                    return low
                frac = (rank - seen) / bucket_count
                return low + (high - low) * frac
            seen += bucket_count
        return self.maximum

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"HistogramData(n={self.count}, mean={self.mean:.4f})"


class Histogram:
    """A named :class:`HistogramData` registered in a registry."""

    __slots__ = ("name", "data")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.data = HistogramData(bounds)

    def observe(self, value: float) -> None:
        self.data.observe(value)

    @property
    def count(self) -> int:
        return self.data.count

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.data.count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments shared by every layer of one deployment.

    ``counter``/``gauge``/``histogram`` are get-or-create: the gossip
    layer and a test can both ask for ``gossip.rounds`` and get the one
    instrument.  Asking for an existing name with a different type is a
    :class:`ConfigurationError` (it would silently split the metric).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get_or_create(
            name,
            Histogram,
            lambda: Histogram(name, bounds if bounds is not None else DEFAULT_BUCKETS),
        )

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        The parallel sweep executor gives every worker its own registry
        and folds them back in canonical cell order: counters add,
        gauges take the later value (maxima combine), histograms add
        bucket counts.  A name registered with different types on the
        two sides is a :class:`ConfigurationError`.
        """
        for name in sorted(other._metrics):
            metric = other._metrics[name]
            if isinstance(metric, Counter):
                self.counter(name).merge(metric)
            elif isinstance(metric, Gauge):
                self.gauge(name).merge(metric)
            else:
                mine = self.histogram(name, metric.data.bounds)
                mine.data.merge(metric.data)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able view of every instrument (manifest payload)."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = {"value": metric.value, "max": metric.maximum}
            else:
                out[name] = metric.data.as_dict()
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
