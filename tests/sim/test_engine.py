"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SimulationError
from repro.sim.engine import Simulation, instrumented
from repro.sim.trace import TraceLog


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulation().now == 0.0

    def test_call_after_advances_clock(self):
        sim = Simulation()
        fired = []
        sim.call_after(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_call_at_absolute(self):
        sim = Simulation()
        fired = []
        sim.call_at(3.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 3.0

    def test_cannot_schedule_in_past(self):
        sim = Simulation()
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().call_after(-1.0, lambda: None)

    def test_nan_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().call_after(float("nan"), lambda: None)

    def test_fifo_for_equal_times(self):
        sim = Simulation()
        order = []
        for index in range(10):
            sim.call_at(1.0, order.append, index)
        sim.run()
        assert order == list(range(10))

    def test_time_ordering(self):
        sim = Simulation()
        order = []
        sim.call_after(2.0, order.append, "late")
        sim.call_after(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_cancel_prevents_firing(self):
        sim = Simulation()
        fired = []
        handle = sim.call_after(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_idempotent(self):
        sim = Simulation()
        handle = sim.call_after(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_events_scheduled_during_run_fire(self):
        sim = Simulation()
        fired = []
        sim.call_after(1.0, lambda: sim.call_after(1.0, fired.append, "nested"))
        sim.run()
        assert fired == ["nested"]
        assert sim.now == 2.0

    def test_max_events_bound(self):
        sim = Simulation()
        count = []

        def reschedule():
            count.append(1)
            sim.call_after(1.0, reschedule)

        sim.call_after(1.0, reschedule)
        sim.run(max_events=5)
        assert len(count) == 5


class TestRunUntil:
    def test_runs_events_up_to_time(self):
        sim = Simulation()
        fired = []
        sim.call_at(1.0, fired.append, 1)
        sim.call_at(5.0, fired.append, 5)
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_event_at_exact_boundary_fires(self):
        sim = Simulation()
        fired = []
        sim.call_at(3.0, fired.append, 3)
        sim.run_until(3.0)
        assert fired == [3]

    def test_cannot_run_backwards(self):
        sim = Simulation()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_run_for_is_relative(self):
        sim = Simulation()
        sim.run_until(2.0)
        sim.run_for(3.0)
        assert sim.now == 5.0

    def test_pending_events_counts_uncancelled(self):
        sim = Simulation()
        handle = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        assert sim.pending_events == 2
        handle.cancel()
        assert sim.pending_events == 1


class TestPeriodic:
    def test_fires_every_interval(self):
        sim = Simulation()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now))
        sim.run_until(7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_first_delay(self):
        sim = Simulation()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now), first_delay=0.5)
        sim.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_cancel_stops_series(self):
        sim = Simulation()
        times = []
        periodic = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run_until(2.5)
        periodic.cancel()
        sim.run_until(10.0)
        assert times == [1.0, 2.0]
        assert not periodic.active

    def test_until_bound(self):
        sim = Simulation()
        times = []
        sim.call_every(1.0, lambda: times.append(sim.now), until=3.0)
        sim.run_until(10.0)
        assert times == [1.0, 2.0, 3.0]

    def test_interval_must_be_positive(self):
        with pytest.raises(SimulationError):
            Simulation().call_every(0.0, lambda: None)

    def test_callback_can_cancel_itself(self):
        sim = Simulation()
        fired = []
        holder = {}

        def once():
            fired.append(sim.now)
            holder["p"].cancel()

        holder["p"] = sim.call_every(1.0, once)
        sim.run_until(5.0)
        assert fired == [1.0]


class TestDeterminism:
    def test_rng_streams_are_deterministic(self):
        a = Simulation(seed=7).rng("gossip").random()
        b = Simulation(seed=7).rng("gossip").random()
        assert a == b

    def test_rng_streams_independent_by_name(self):
        sim = Simulation(seed=7)
        assert sim.rng("a").random() != sim.rng("b").random()

    def test_adding_stream_does_not_perturb_existing(self):
        sim1 = Simulation(seed=7)
        first_draw = sim1.rng("main").random()
        sim2 = Simulation(seed=7)
        sim2.rng("other")  # new consumer
        assert sim2.rng("main").random() == first_draw

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    @settings(max_examples=50)
    def test_property_events_fire_in_time_order(self, delays):
        sim = Simulation()
        fired = []
        for delay in delays:
            sim.call_after(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class Recorder:
    """A dispatch monitor that keeps the virtual times it was shown."""

    def __init__(self):
        self.times = []

    def observe(self, callback, args, elapsed, sim_time, heap_len):
        self.times.append(sim_time)


class TestInstrumentedSimulations:
    """The simulation side of :func:`instrumented`: dispatch monitors."""

    def test_each_simulation_gets_its_own_monitor(self):
        made = []

        def factory(sim):
            made.append((sim, Recorder()))
            return made[-1][1]

        with instrumented(sim=[factory]):
            first, second = Simulation(seed=1), Simulation(seed=2)
            TraceLog(first)  # a trace is not a simulation: no call
        assert [sim for sim, _ in made] == [first, second]
        assert first.monitors == (made[0][1],)
        assert second.monitors == (made[1][1],)
        first.call_after(0.5, lambda: None)
        first.run()
        assert made[0][1].times == [0.5]
        assert made[1][1].times == []

    def test_a_factory_may_decline_and_outside_the_block_nothing_attaches(self):
        with instrumented(sim=[lambda sim: None]):
            assert Simulation().monitors == ()
        monitor = Recorder()
        with instrumented(sim=[lambda sim: monitor]):
            pass
        outside = Simulation()
        outside.call_after(0.5, lambda: None)
        outside.run()
        assert outside.monitors == ()
        assert monitor.times == []

    def test_blocks_nest_and_restore_on_exception(self):
        outer, inner = Recorder(), Recorder()
        with instrumented(sim=[lambda sim: outer]):
            with pytest.raises(RuntimeError):
                with instrumented(sim=[lambda sim: inner]):
                    assert Simulation().monitors == (outer, inner)
                    raise RuntimeError("boom")
            assert Simulation().monitors == (outer,)
        assert Simulation().monitors == ()
