"""Tests for the parallel-merge folds on metrics and streaming sinks.

The determinism contract (docs/PARALLEL.md) needs merging per-worker
aggregates in canonical cell order to reproduce exactly what one
serial observer would have recorded: counters add, gauges take the
later value (maxima combine), histograms fold bucket-by-bucket, and
shape mismatches fail loudly instead of silently mixing streams.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, HistogramData, MetricsRegistry
from repro.obs.sinks import StreamingSink
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog


class TestCounterMerge:
    def test_values_add(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7


class TestGaugeMerge:
    def test_later_value_wins_maxima_combine(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(10.0)
        a.set(2.0)
        b.set(5.0)
        b.set(4.0)
        a.merge(b)
        assert a.value == 4.0
        assert a.maximum == 10.0

    def test_matches_serial_replay(self):
        # Folding two per-cell gauges in order == one gauge seeing all
        # sets in the same order.
        serial = Gauge("g")
        for value in (1.0, 9.0, 3.0, 2.0):
            serial.set(value)
        first, second = Gauge("g"), Gauge("g")
        first.set(1.0)
        first.set(9.0)
        second.set(3.0)
        second.set(2.0)
        first.merge(second)
        assert (first.value, first.maximum) == (serial.value, serial.maximum)


class TestHistogramMerge:
    def test_buckets_fold(self):
        bounds = (1.0, 2.0, 4.0)
        serial = HistogramData(bounds)
        a, b = HistogramData(bounds), HistogramData(bounds)
        for value in (0.5, 1.5, 3.0, 9.0):
            serial.observe(value)
        for value in (0.5, 1.5):
            a.observe(value)
        for value in (3.0, 9.0):
            b.observe(value)
        a.merge(b)
        assert a.counts == serial.counts
        assert a.count == serial.count
        assert a.total == serial.total
        assert a.minimum == serial.minimum
        assert a.maximum == serial.maximum

    def test_bounds_mismatch_rejected(self):
        a = HistogramData((1.0, 2.0))
        b = HistogramData((1.0, 3.0))
        with pytest.raises(ConfigurationError):
            a.merge(b)


class TestRegistryMerge:
    def test_folds_all_instrument_types(self):
        serial = MetricsRegistry()
        serial.counter("deliveries").inc(5)
        serial.gauge("queue").set(7.0)
        serial.gauge("queue").set(3.0)

        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("deliveries").inc(2)
        first.gauge("queue").set(7.0)
        second.counter("deliveries").inc(3)
        second.gauge("queue").set(3.0)
        first.merge(second)
        assert first.snapshot() == serial.snapshot()

    def test_merge_creates_missing_instruments(self):
        target = MetricsRegistry()
        other = MetricsRegistry()
        other.counter("only-there").inc(4)
        target.merge(other)
        assert target.counter("only-there").value == 4

    def test_type_conflict_rejected(self):
        target = MetricsRegistry()
        target.counter("name")
        other = MetricsRegistry()
        other.gauge("name").set(1.0)
        with pytest.raises(ConfigurationError):
            target.merge(other)


class TestStreamingSinkMerge:
    def _fill(self, sink, start):
        log = TraceLog(Simulation(seed=1), sinks=[sink])
        for i in range(start, start + 10):
            # Exact binary fractions: histogram totals fold in a
            # different order than serial observation, and only
            # exactly-representable values make the fold bit-identical
            # (the documented float-associativity caveat in
            # docs/PARALLEL.md).
            log.record(
                "deliver", node=f"n{i % 3}", item=f"i{i % 4}",
                latency=0.25 * (i % 5),
            )
        log.record("forward", to=f"/z{start}", item="i0")

    def test_fold_matches_single_observer(self):
        serial = StreamingSink()
        self._fill(serial, 0)
        self._fill(serial, 10)
        a, b = StreamingSink(), StreamingSink()
        self._fill(a, 0)
        self._fill(b, 10)
        a.merge(b)
        assert a.as_dict() == serial.as_dict()
        assert a.deliveries_per_item == serial.deliveries_per_item
        assert (a.first_time, a.last_time) == (serial.first_time, serial.last_time)
