"""Additional engine coverage: repr, bookkeeping."""

from repro.sim.engine import Simulation


class TestDrainAndBookkeeping:
    def test_events_processed_counter(self):
        sim = Simulation()
        for _ in range(4):
            sim.call_after(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulation()
        handle = sim.call_after(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.events_processed == 0

    def test_repr_mentions_state(self):
        sim = Simulation()
        sim.call_after(1.0, lambda: None)
        text = repr(sim)
        assert "pending=1" in text and "now=0.000" in text

    def test_handle_repr(self):
        sim = Simulation()
        handle = sim.call_after(1.0, lambda: None)
        assert "pending" in repr(handle)
        handle.cancel()
        assert "cancelled" in repr(handle)

    def test_step_returns_false_when_idle(self):
        assert Simulation().step() is False

    def test_clock_does_not_move_backwards_via_run_until(self):
        sim = Simulation()
        sim.run_until(5.0)
        sim.run_until(5.0)  # same time is allowed (no-op)
        assert sim.now == 5.0
