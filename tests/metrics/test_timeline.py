"""Tests for windowed time series."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog
from repro.metrics.timeline import bucketize, event_timeline, sparkline


class TestBucketize:
    def test_counts_per_window(self):
        samples = [(0.5, 1.0), (1.5, 1.0), (1.9, 1.0), (3.5, 1.0)]
        buckets = bucketize(samples, window=1.0, start=0.0, end=4.0)
        assert [b.count for b in buckets] == [1, 2, 0, 1]

    def test_empty_windows_included(self):
        buckets = bucketize([(5.0, 1.0)], window=1.0, start=0.0, end=6.0)
        assert len(buckets) == 6
        assert buckets[2].count == 0

    def test_rate(self):
        buckets = bucketize([(0.1, 1.0), (0.2, 1.0)], window=2.0, start=0.0, end=2.0)
        assert buckets[0].rate == 1.0  # 2 events / 2 s

    def test_values_summed(self):
        buckets = bucketize([(0.1, 10.0), (0.2, 20.0)], window=1.0, start=0.0, end=1.0)
        assert buckets[0].total == 30.0
        assert buckets[0].mean_value == 15.0

    def test_samples_outside_range_ignored(self):
        buckets = bucketize([(-1.0, 1.0), (10.0, 1.0)], window=1.0, start=0.0, end=2.0)
        assert sum(b.count for b in buckets) == 0

    def test_end_defaults_past_last_sample(self):
        buckets = bucketize([(3.2, 1.0)], window=1.0)
        assert buckets[-1].end > 3.2  # coverage extends past the sample
        assert sum(b.count for b in buckets) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bucketize([], window=0.0)
        with pytest.raises(ConfigurationError):
            bucketize([], window=1.0, start=5.0, end=5.0)

    def test_boundaries_are_half_open(self):
        buckets = bucketize([(1.0, 1.0)], window=1.0, start=0.0, end=2.0)
        assert [b.count for b in buckets] == [0, 1]


class TestEventTimeline:
    def _trace(self):
        sim = Simulation()
        trace = TraceLog(sim)
        for t in (0.5, 1.5, 1.6):
            sim.call_at(
                t, lambda latency: trace.record("deliver", latency=latency), t / 10
            )
        sim.run()
        return trace

    def test_event_rate(self):
        buckets = event_timeline(self._trace(), "deliver", window=1.0,
                                 start=0.0, end=2.0)
        assert [b.count for b in buckets] == [1, 2]

    def test_value_extractor(self):
        buckets = event_timeline(
            self._trace(), "deliver", window=2.0, start=0.0, end=2.0,
            value=lambda e: e["latency"],
        )
        assert buckets[0].total == pytest.approx(0.36)


class TestSparkline:
    def test_shape(self):
        buckets = bucketize(
            [(float(i) + 0.5, 1.0) for i in range(10) for _ in range(i)],
            window=1.0, start=0.0, end=10.0,
        )
        art = sparkline(buckets)
        assert len(art) == 10
        assert art[0] == " " and art[-1] == "█"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_resampling_wide_input(self):
        buckets = bucketize(
            [(float(i), 1.0) for i in range(200)], window=1.0,
            start=0.0, end=200.0,
        )
        art = sparkline(buckets, width=40)
        assert len(art) == 40
