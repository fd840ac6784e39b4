"""``TraceLog.record_many``: a batch must land exactly as the same
events recorded one by one — in every sink, whether or not the sink
folds batches itself."""

import pytest

from repro.obs.sinks import MemorySink, StreamingSink
from repro.sim.engine import Simulation
from repro.sim.trace import TraceLog


class EmitOnlySink:
    """The minimal sink protocol: no ``emit_many``."""

    def __init__(self):
        self.seen = []

    def emit(self, time, kind, fields):
        self.seen.append((time, kind, dict(fields)))

    def clear(self):
        self.seen.clear()

    def close(self):
        pass


def deliveries(count):
    """``(time, fields)`` pairs with repeating items and nodes, a float
    sum that depends on order, and fields a fold must tolerate missing."""
    events = []
    for i in range(count):
        fields = {"node": f"n{i % 5}", "item": f"i{i % 3}", "latency": 0.1 * (i + 1)}
        if i % 4 == 3:
            del fields["latency"]
        if i % 7 == 6:
            del fields["node"]
        events.append((1.0 + 0.25 * i, fields))
    return events


def one_by_one(log, kind, events):
    """N x ``record``, each at its own time (``record`` stamps ``sim.now``)."""
    for time, fields in events:
        log.sim.run_until(time)
        log.record(kind, **fields)


def streaming_state(sink):
    return (
        sink.as_dict(),
        sink.deliveries_per_item,
        sink.latency.counts,
        sink.latency.total,
    )


def make_logs(**kwargs):
    return [
        TraceLog(
            Simulation(seed=1),
            sinks=[MemorySink(), StreamingSink(), EmitOnlySink()],
            **kwargs,
        )
        for _ in range(2)
    ]


class TestRecordMany:
    @pytest.mark.parametrize("kind", ["deliver", "forward", "other"])
    def test_equals_n_records(self, kind):
        batched, single = make_logs()
        events = deliveries(23)
        if kind == "forward":
            events = [(time, {"to": fields["item"]}) for time, fields in events]
        for log in (batched, single):
            log.record("publish", item="i0")  # the folds start from a used sink
        batched.record_many(kind, events[:10])
        batched.record_many(kind, events[10:])
        one_by_one(single, kind, events)
        assert batched.counts() == single.counts()
        (memory, streaming, plain), (memory_1, streaming_1, plain_1) = (
            batched.sinks,
            single.sinks,
        )
        assert memory.events == memory_1.events
        assert streaming_state(streaming) == streaming_state(streaming_1)
        # A sink with and a sink without emit_many, side by side: both
        # saw every event, in order.
        assert plain.seen == plain_1.seen
        assert [time for time, _, _ in plain.seen[1:]] == [time for time, _ in events]

    def test_kinds_filter_still_applies(self):
        log, _ = make_logs(kinds={"deliver"})
        events = deliveries(5)
        log.record_many("forward", events)
        log.record_many("deliver", events)
        # Counted whether retained or not, exactly like record().
        assert log.counts() == {"forward": 5, "deliver": 5}
        assert len(log.memory_sink().events) == 5
        assert log.streaming_sink().counts == {"deliver": 5}
        assert log.sinks[2].seen == [(t, "deliver", f) for t, f in events]

    def test_empty_batch_records_nothing(self):
        log, _ = make_logs()
        log.record_many("deliver", [])
        assert log.counts() == {}
        assert log.streaming_sink().events_seen == 0

    def test_sink_added_later_gets_batches(self):
        log = TraceLog(Simulation(seed=1), sinks=[MemorySink()])
        late = log.add_sink(EmitOnlySink())
        log.record_many("deliver", deliveries(3))
        assert len(late.seen) == 3 and len(log) == 3
