"""Bulk lanes: ``Simulation.call_at_batch`` against the per-event kernel.

The contract is that a lane changes *how many heap entries* a batch
costs and nothing observable: rows fire in the ``(time, seq)`` order
``call_at`` would give them, and ``events_processed`` /
``pending_events`` count rows.  The differential test holds a random
schedule to that; the deterministic cases pin the edges.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SimulationError
from repro.obs.profile import categorize
from repro.sim.engine import _LANE_RUN_CAP, Simulation

#: Lane handlers may only schedule at or after ``now``, and during a
#: dispatch ``now`` is the run's last row: what a row spawns lands this
#: far after it, past every row that can share its run (pending rows
#: span 4 s at most).
HORIZON = 1000.0
LATE = 2  # the lane spawned rows go to (rows there spawn nothing)


class Harness:
    """One schedule, expressed with lanes or with ``call_at`` only."""

    def __init__(self, lanes: bool):
        self.sim = Simulation()
        self.lanes = lanes
        self.fired = []
        self.handles = []
        self.handlers = [functools.partial(self._rows, lane) for lane in range(3)]

    def batch(self, lane, rows):
        handler = self.handlers[lane]
        if self.lanes:
            assert self.sim.call_at_batch(handler, rows) == len(rows)
        else:
            for row in rows:
                self.sim.call_at(row[0], handler, [row])

    def event(self, time, payload, action=()):
        self.handles.append(self.sim.call_at(time, self._event, payload, action))

    def _rows(self, lane, rows):
        assert rows and rows[-1][0] == self.sim.now
        for time, payload, spawn in rows:
            self.fired.append((time, lane, payload))
            self.batch(
                LATE, [(time + HORIZON + d, (payload, k), ()) for k, d in enumerate(spawn)]
            )

    def _event(self, payload, action):
        now = self.sim.now
        self.fired.append((now, "event", payload))
        if action and action[0] == "batch":
            _, lane, deltas = action
            self.batch(lane, [(now + d, (payload, k), ()) for k, d in enumerate(deltas)])
        elif action and self.handles:
            self.handles[action[1] % len(self.handles)].cancel()

    def apply(self, index, op):
        sim = self.sim
        kind = op[0]
        if kind == "event":
            self.event(sim.now + op[1], index, op[2])
        elif kind == "after":
            self.handles.append(sim.call_after(op[1], self._event, index, ()))
        elif kind == "batch":
            self.batch(
                op[1],
                [
                    (sim.now + delta, (index, k), tuple(spawn))
                    for k, (delta, spawn) in enumerate(op[2])
                ],
            )
        elif kind == "cancel" and self.handles:
            self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "run":
            sim.run_until(sim.now + op[1])
        elif kind == "step":
            sim.step()

    def state(self):
        sim = self.sim
        return self.fired, sim.now, sim.events_processed, sim.pending_events


# Quarter-second grid: duplicate times and ties with heap events are common.
TIMES = st.integers(0, 16).map(lambda k: k * 0.25)
DELTAS = st.lists(TIMES, max_size=4)
ACTIONS = st.one_of(
    st.just(()),
    st.tuples(st.just("batch"), st.integers(0, 1), DELTAS),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("event"), TIMES, ACTIONS),
        st.tuples(st.just("after"), TIMES),
        st.tuples(
            st.just("batch"),
            st.integers(0, 1),
            st.lists(st.tuples(TIMES, DELTAS), max_size=8),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("run"), TIMES),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


class TestDifferential:
    @given(OPS)
    @settings(max_examples=300, deadline=None)
    def test_same_firing_sequence_as_call_at(self, ops):
        lanes, reference = Harness(lanes=True), Harness(lanes=False)
        for index, op in enumerate(ops):
            lanes.apply(index, op)
            reference.apply(index, op)
            assert lanes.state() == reference.state()
        lanes.sim.run()
        reference.sim.run()
        assert lanes.state() == reference.state()
        assert lanes.sim.pending_events == 0
        assert lanes.sim._lanes == {}


def collector(sim, into):
    """A lane handler logging ``(now, [row times])`` per dispatch."""

    def handler(rows):
        into.append((sim.now, [row[0] for row in rows]))

    return handler


class TestLaneDispatch:
    def test_run_bound_inside_a_lane(self):
        sim = Simulation()
        calls = []
        sim.call_at_batch(collector(sim, calls), [(t,) for t in (1.0, 2.0, 3.0, 4.0)])
        assert sim.pending_events == 4
        sim.run_until(2.5)
        assert calls == [(2.0, [1.0, 2.0])]
        assert (sim.now, sim.events_processed, sim.pending_events) == (2.5, 2, 2)
        sim.run_until(10.0)
        assert calls[1:] == [(4.0, [3.0, 4.0])]
        assert (sim.events_processed, sim.pending_events) == (4, 0)

    def test_bound_equal_to_a_row_time_includes_it(self):
        sim = Simulation()
        calls = []
        sim.call_at_batch(collector(sim, calls), [(1.0,), (2.0,), (2.0,), (3.0,)])
        sim.run_until(2.0)
        assert calls == [(2.0, [1.0, 2.0, 2.0])]

    def test_heap_event_splits_a_run_and_ties_go_by_seq(self):
        sim = Simulation()
        order = []
        handler = lambda rows: order.extend(row[1] for row in rows)  # noqa: E731
        sim.call_at(2.0, order.append, "before")
        sim.call_at_batch(handler, [(1.0, "a"), (2.0, "b"), (3.0, "c")])
        sim.call_at(2.0, order.append, "after")
        sim.run_until(5.0)
        assert order == ["a", "before", "b", "after", "c"]

    def test_cancelled_heap_head_does_not_split_a_run(self):
        sim = Simulation()
        calls = []
        sim.call_at_batch(collector(sim, calls), [(1.0,), (3.0,)])
        sim.call_at(2.0, calls.append, "never").cancel()
        sim.run_until(5.0)
        assert calls == [(3.0, [1.0, 3.0])]
        assert (sim.events_processed, sim.pending_events) == (2, 0)

    def test_dispatch_never_exceeds_the_cap(self):
        sim = Simulation()
        calls = []
        total = 3 * _LANE_RUN_CAP + 5
        sim.call_at_batch(collector(sim, calls), [(1.0 + i,) for i in range(total)])
        sim.run_until(2.0 + total)
        sizes = [len(times) for _, times in calls]
        assert max(sizes) == _LANE_RUN_CAP
        assert sizes == [_LANE_RUN_CAP] * 3 + [5]
        assert sim.events_processed == total

    def test_step_fires_one_row(self):
        sim = Simulation()
        calls = []
        sim.call_at_batch(collector(sim, calls), [(1.0,), (1.0,), (2.0,)])
        assert sim.step()
        assert calls == [(1.0, [1.0])]
        assert (sim.events_processed, sim.pending_events) == (1, 2)
        sim.run(max_events=1)
        assert (sim.events_processed, sim.pending_events) == (2, 1)
        assert sim.step() and not sim.step()

    def test_earlier_batch_rekeys_the_lane(self):
        sim = Simulation()
        calls = []
        handler = collector(sim, calls)
        sim.call_at_batch(handler, [(5.0,), (6.0,)])
        sim.call_at_batch(handler, [(2.0,), (7.0,)])
        assert sim.pending_events == 4
        sim.run_until(3.0)
        assert calls == [(2.0, [2.0])]
        sim.run_until(10.0)
        assert calls[1:] == [(7.0, [5.0, 6.0, 7.0])]
        assert sim.pending_events == 0

    def test_equal_callbacks_share_one_lane(self):
        class Owner:
            def __init__(self):
                self.calls = []

            def handle(self, rows):
                self.calls.append(len(rows))

        sim, owner = Simulation(), Owner()
        sim.call_at_batch(owner.handle, [(1.0,)])
        sim.call_at_batch(owner.handle, [(2.0,)])  # a fresh bound method
        assert len(sim._heap) == 1
        sim.run_until(3.0)
        assert owner.calls == [2]

    def test_rows_added_during_a_dispatch(self):
        sim = Simulation()
        seen = []

        def handler(rows):
            seen.extend(row[0] for row in rows)
            if len(seen) == 2:
                sim.call_at_batch(handler, [(sim.now,), (sim.now + 1.0,)])

        sim.call_at_batch(handler, [(1.0,), (2.0,)])
        sim.run_until(5.0)
        assert seen == [1.0, 2.0, 2.0, 3.0]
        assert (sim.events_processed, sim.pending_events) == (4, 0)

    def test_a_raising_handler_keeps_the_remaining_rows(self):
        sim = Simulation()
        seen = []

        def handler(rows):
            seen.extend(row[0] for row in rows)
            if len(seen) == 1:
                raise RuntimeError("boom")

        sim.call_at_batch(handler, [(1.0,), (2.0,)])
        with pytest.raises(RuntimeError):
            sim.step()
        assert sim.pending_events == 1
        sim.run()
        assert seen == [1.0, 2.0]

    def test_monitor_sees_the_real_callback(self):
        class Handler:
            def rows(self, rows):
                pass

        class Monitor:
            def __init__(self):
                self.seen = []

            def observe(self, callback, args, elapsed, sim_time, heap_len):
                self.seen.append((categorize(callback, args)[1], sim_time))

        sim, monitor, handler = Simulation(), Monitor(), Handler()
        sim.add_monitor(monitor)
        sim.call_at_batch(handler.rows, [(1.0,), (2.0,), (3.0,)])
        sim.run_until(5.0)
        # Once per dispatch, stamped with the head row's time.
        assert monitor.seen == [(f"{__name__}.{Handler.rows.__qualname__}", 1.0)]


class TestAtomicValidation:
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.5])
    def test_a_bad_row_schedules_nothing(self, position, bad):
        sim = Simulation()
        fired = []
        handler = lambda rows: fired.extend(row[0] for row in rows)  # noqa: E731
        sim.call_at_batch(handler, [(2.0,)])
        sim.run_until(1.0)  # 0.5 is now in the past
        rows = [(3.0,), (4.0,), (5.0,), (6.0,)]
        rows.insert(position, (bad,))
        before = (sim._seq, list(sim._heap), dict(sim._lanes), sim.pending_events)
        with pytest.raises(SimulationError):
            sim.call_at_batch(handler, rows)
        assert before == (sim._seq, sim._heap, sim._lanes, sim.pending_events)
        sim.run()
        assert fired == [2.0]

    def test_empty_batch(self):
        sim = Simulation()
        assert sim.call_at_batch(lambda rows: None, []) == 0
        assert sim.pending_events == 0 and sim._lanes == {}
