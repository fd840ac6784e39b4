"""Bounded time-series snapshots of a :class:`MetricsRegistry`.

The registry answers *"how much, in total?"*; this module answers
*"when?"*.  A :class:`TimeSeriesRecorder` periodically samples every
Counter / Gauge in one registry into per-metric
:class:`RingBufferSeries` — fixed-capacity ring buffers, so a week-long
run retains the same memory as a minute-long one.

The recorder is a *dispatch monitor* (see
:func:`repro.sim.engine.instrumented`): after every simulated event it
checks whether virtual time crossed the next sampling boundary and
snapshots the registry if so.  Crucially this happens from *outside*
the event stream — no events are scheduled, no RNG is drawn, no
sequence numbers shift — so a fixed-seed run with sampling enabled
stays byte-identical to a bare one.

A :class:`TimeSeriesBundle` groups the recorders of one run (one per
cell / per simulation), merges across parallel sweep workers in
canonical cell order, and exports one JSONL artifact
(``{"cell", "series", "t", "value"}`` per line).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "RingBufferSeries",
    "TimeSeriesBundle",
    "TimeSeriesRecorder",
]

#: Default sampling cadence in simulated seconds.
DEFAULT_INTERVAL = 1.0

#: Default ring capacity per series — at the default cadence this holds
#: the most recent ~8.5 minutes of samples in a few KiB per metric.
DEFAULT_CAPACITY = 512


class RingBufferSeries:
    """One metric's bounded (time, value) history.

    Appends are O(1); once ``capacity`` points are held, each append
    evicts the oldest point and bumps :attr:`dropped` — memory is fixed
    no matter how long the run samples
    (``tests/obs/test_timeseries.py``).
    """

    __slots__ = ("name", "capacity", "_times", "_values", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ConfigurationError(
                f"series capacity must be positive, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self._times: deque = deque(maxlen=capacity)
        self._values: deque = deque(maxlen=capacity)
        #: Samples evicted to honour the capacity bound.
        self.dropped = 0

    def append(self, time: float, value: float) -> None:
        if len(self._times) == self.capacity:
            self.dropped += 1
        self._times.append(time)
        self._values.append(value)

    def points(self) -> List[Tuple[float, float]]:
        """Retained (time, value) pairs, oldest first."""
        return list(zip(self._times, self._values))

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:
        return (
            f"RingBufferSeries({self.name!r}, n={len(self)}/"
            f"{self.capacity}, dropped={self.dropped})"
        )


class TimeSeriesRecorder:
    """Samples one :class:`MetricsRegistry` into ring-buffer series.

    Per sample and per metric: counters and gauges record their current
    value under the metric name.  Series are created lazily, so metrics
    registered mid-run simply start appearing from their first sample.

    As a dispatch monitor (:meth:`observe`) the recorder samples when
    virtual time crosses multiples of ``interval`` — at most one
    catch-up sample per crossing, stamped with the actual event time,
    which keeps the schedule a pure function of the event stream (and
    therefore identical between serial and parallel sweep execution).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        label: str = "",
    ):
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}"
            )
        self.registry = registry
        self.interval = interval
        self.capacity = capacity
        self.label = label
        self.series: Dict[str, RingBufferSeries] = {}
        self.samples = 0
        self._next_due = interval

    # -- sampling --------------------------------------------------------

    def _series(self, name: str) -> RingBufferSeries:
        series = self.series.get(name)
        if series is None:
            series = RingBufferSeries(name, self.capacity)
            self.series[name] = series
        return series

    def sample(self, now: float) -> None:
        """Snapshot every registry instrument at time ``now``."""
        self.samples += 1
        for name in self.registry.names():
            self._series(name).append(now, self.registry.get(name).value)

    def observe(
        self,
        callback: Any,
        args: tuple,
        elapsed: float,
        now: float,
        heap_len: int,
    ) -> None:
        """Dispatch-monitor hook: sample when ``now`` crosses a boundary."""
        if now >= self._next_due:
            self.sample(now)
            due = self._next_due + self.interval
            if due <= now:  # idle stretch skipped several boundaries
                due = now + self.interval
            self._next_due = due

    # -- export ----------------------------------------------------------

    @property
    def dropped_total(self) -> int:
        return sum(series.dropped for series in self.series.values())

    def export_rows(self) -> List[Dict[str, Any]]:
        """JSON-able rows, series in name order, points in time order."""
        rows: List[Dict[str, Any]] = []
        for name in sorted(self.series):
            for time, value in self.series[name].points():
                rows.append(
                    {"cell": self.label, "series": name, "t": time, "value": value}
                )
        return rows

    def __repr__(self) -> str:
        return (
            f"TimeSeriesRecorder(label={self.label!r}, "
            f"series={len(self.series)}, samples={self.samples})"
        )


class TimeSeriesBundle:
    """The recorders of one run, mergeable and exportable as JSONL."""

    def __init__(self) -> None:
        self.recorders: List[TimeSeriesRecorder] = []

    def add(self, recorder: TimeSeriesRecorder) -> TimeSeriesRecorder:
        self.recorders.append(recorder)
        return recorder

    def merge(self, other: "TimeSeriesBundle") -> None:
        """Append another bundle's recorders (parallel-worker fold).

        The sweep executor merges per-cell bundles in canonical cell
        order, so the concatenated export is byte-identical to a
        one-worker run of the same cells.
        """
        self.recorders.extend(other.recorders)

    @property
    def total_samples(self) -> int:
        return sum(recorder.samples for recorder in self.recorders)

    @property
    def dropped_total(self) -> int:
        return sum(recorder.dropped_total for recorder in self.recorders)

    def rows(self) -> Iterator[Dict[str, Any]]:
        for recorder in self.recorders:
            yield from recorder.export_rows()

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write every row as one JSON line; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")
        return target

    def summary(self) -> Dict[str, Any]:
        """Manifest payload: shape of the recording, not the data."""
        return {
            "recorders": len(self.recorders),
            "cells": [recorder.label for recorder in self.recorders],
            "series": sum(len(r.series) for r in self.recorders),
            "samples": self.total_samples,
            "dropped": self.dropped_total,
        }

    def __len__(self) -> int:
        return len(self.recorders)

    def __repr__(self) -> str:
        return (
            f"TimeSeriesBundle({len(self.recorders)} recorders, "
            f"{self.total_samples} samples)"
        )
