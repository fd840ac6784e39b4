"""Tests for trace logging and RNG registry."""

import pytest

from repro.obs.causal import CausalSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink, StreamingSink
from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceLog, observed_traces


class TestTraceLog:
    def test_record_and_read(self):
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("deliver", node="/a", latency=1.5)
        event = next(trace.events("deliver"))
        assert event.time == 0.0
        assert event["node"] == "/a"
        assert event["latency"] == 1.5

    def test_timestamps_follow_clock(self):
        sim = Simulation()
        trace = TraceLog(sim)
        sim.call_at(3.0, trace.record, "tick")
        sim.run()
        assert next(trace.events("tick")).time == 3.0

    def test_kind_filter_still_counts(self):
        sim = Simulation()
        trace = TraceLog(sim, kinds={"keep"})
        trace.record("keep", x=1)
        trace.record("drop", x=2)
        assert len(trace) == 1
        assert trace.count("drop") == 1
        assert list(trace.events("drop")) == []

    def test_empty_kinds_records_nothing_counts_all(self):
        sim = Simulation()
        trace = TraceLog(sim, kinds=set())
        trace.record("anything")
        assert len(trace) == 0
        assert trace.count("anything") == 1

    def test_get_with_default(self):
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("e", a=1)
        event = next(trace.events("e"))
        assert event.get("missing", 42) == 42
        assert event.as_dict() == {"a": 1}

    def test_getitem_missing_raises(self):
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("e", a=1)
        with pytest.raises(KeyError):
            next(trace.events("e"))["b"]

    def test_clear(self):
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("e")
        trace.clear()
        assert len(trace) == 0
        assert trace.count("e") == 0

    def test_clear_resets_sinks_attached_mid_run(self):
        """``clear()`` must reach sinks added *after* construction too."""
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("deliver", node="/n0", item="i0", latency=0.1)
        streaming = trace.add_sink(StreamingSink())
        trace.record("deliver", node="/n0", item="i0", latency=0.2)
        trace.clear()
        assert trace.count("deliver") == 0
        assert trace.retained_events == 0
        assert streaming.events_seen == 0
        assert streaming.latency.count == 0
        # Recording after a clear starts from a clean slate everywhere.
        trace.record("deliver", node="/n1", item="i1", latency=0.3)
        assert trace.count("deliver") == 1
        assert len(trace) == 1
        assert streaming.count("deliver") == 1
        assert streaming.deliveries_per_item == {"i1": 1}

    def test_clear_resets_causal_sink(self):
        sim = Simulation()
        trace = TraceLog(sim)
        causal = trace.add_sink(CausalSink())
        trace.record("publish", node="/p", item="i", subject="s")
        trace.clear()
        assert causal.trees == {}
        assert causal.events_seen == 0

    def test_events_without_kind_returns_all(self):
        sim = Simulation()
        trace = TraceLog(sim)
        trace.record("a")
        trace.record("b")
        assert len(list(trace.events())) == 2


class TestObservedTraces:
    def test_observers_land_behind_the_primary_sink(self):
        made = []

        def factory(trace):
            made.append((trace, StreamingSink()))
            return made[-1][1]

        with observed_traces(factory):
            default = TraceLog(Simulation())
            explicit = TraceLog(Simulation(), sinks=[StreamingSink()])
        assert [trace for trace, _ in made] == [default, explicit]
        assert isinstance(default.sinks[0], MemorySink)
        assert default.sinks[1:] == (made[0][1],)
        assert explicit.sinks[1:] == (made[1][1],)
        # Collectors keep reading the trace's own sink, not the observer.
        assert default.memory_sink() is default.sinks[0]
        assert explicit.streaming_sink() is explicit.sinks[0]
        default.record("deliver", node="/a", item="i", latency=0.1)
        assert made[0][1].count("deliver") == 1
        assert made[1][1].count("deliver") == 0

    def test_a_factory_may_decline_and_outside_the_block_nothing_attaches(self):
        with observed_traces(lambda trace: None):
            assert len(TraceLog(Simulation()).sinks) == 1
        sink = StreamingSink()
        with observed_traces(lambda trace: sink):
            pass
        outside = TraceLog(Simulation())
        outside.record("deliver", node="/a", item="i", latency=0.1)
        assert len(outside.sinks) == 1
        assert sink.events_seen == 0

    def test_blocks_nest_and_restore_on_exception(self):
        outer, inner = StreamingSink(), StreamingSink()
        with observed_traces(lambda trace: outer):
            with pytest.raises(RuntimeError):
                with observed_traces(lambda trace: inner):
                    assert TraceLog(Simulation()).sinks[1:] == (outer, inner)
                    raise RuntimeError("boom")
            assert TraceLog(Simulation()).sinks[1:] == (outer,)
        assert len(TraceLog(Simulation()).sinks) == 1

    def test_block_registry_fills_in_but_explicit_metrics_win(self):
        block, explicit, inner = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        with observed_traces(metrics=block):
            assert TraceLog(Simulation()).metrics is block
            assert TraceLog(Simulation(), metrics=explicit).metrics is explicit
            with observed_traces(metrics=inner):
                assert TraceLog(Simulation()).metrics is inner
            with observed_traces():  # no registry of its own: inherits
                assert TraceLog(Simulation()).metrics is block
            assert TraceLog(Simulation()).metrics is block
        assert TraceLog(Simulation()).metrics is not block

    def test_expect_reaches_only_sinks_that_define_it(self):
        bare = TraceLog(Simulation())
        assert not bare.wants_expectations
        bare.expect("i", {"/a"})  # nobody listening: a no-op
        causal = CausalSink()
        trace = TraceLog(Simulation(), sinks=[MemorySink(), causal])
        assert trace.wants_expectations
        trace.expect("i", ["/a", "/b"])
        assert causal.registered_expected("i") == {"/a", "/b"}


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_derive_seed_varies(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_stream_cached(self):
        registry = RngRegistry(0)
        assert registry.stream("a") is registry.stream("a")

    def test_fork_independent(self):
        registry = RngRegistry(0)
        fork = registry.fork("child")
        assert registry.stream("a").random() != fork.stream("a").random()
