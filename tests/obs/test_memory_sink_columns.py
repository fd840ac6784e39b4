"""The column-store ``MemorySink`` answers exactly as the list sink did.

``MemorySink`` keeps its events as columns (times, shape ids, value
offsets, one flat value list) and builds each ``TraceEvent`` on read.
These tests replay the same emits into it and into a verbatim copy of
the list-of-``TraceEvent`` sink it replaced, and compare every reader:
random mixed-shape streams, then every event a quick E2 and E10 record.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.registry import get_spec
from repro.obs.sinks import MemorySink, TraceBatch, TraceEvent, _event
from repro.sim.engine import Simulation, instrumented
from repro.sim.trace import TraceLog


class LegacyMemorySink:
    """The list-of-events sink the column store replaced, kept verbatim."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        #: One names tuple per field shape, shared by every event of it.
        self._shapes: Dict[tuple, tuple] = {}

    def _shape(self, fields: Mapping[str, Any]) -> tuple:
        keys = tuple(fields)
        return self._shapes.setdefault(keys, keys)

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.events.append(
            _event(time, kind, self._shape(fields), tuple(fields.values()))
        )

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        shape = self._shape
        self.events.extend(
            _event(time, kind, shape(fields), tuple(fields.values()))
            for time, fields in events
        )

    @property
    def retained_events(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)


def assert_same(sink: MemorySink, legacy: LegacyMemorySink) -> None:
    view, events = sink.events, legacy.events
    assert len(sink) == len(legacy) == len(view) == len(events)
    assert sink.retained_events == legacy.retained_events
    assert bool(view) == bool(events)
    assert view == events and events == view and view == sink.events
    assert not (view != events)
    assert list(view) == events
    for mine, theirs in zip(view, events):
        assert type(mine.time) is type(theirs.time)
        assert repr(mine) == repr(theirs)
        assert hash(mine) == hash(theirs)
    size = len(events)
    for index in {0, 1, size // 2, size - 1, -1, -2, -size}:
        if -size <= index < size:
            assert view[index] == events[index]
            assert repr(view[index]) == repr(events[index])
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            view[index]
    for part in (
        slice(None),
        slice(1, None),
        slice(None, -1),
        slice(-3, None),
        slice(None, None, 2),
        slice(None, None, -1),
        slice(2, 1),
    ):
        assert view[part] == events[part]
    kinds = {event.kind for event in events} | {"no-such-kind"}
    for kind in kinds:
        assert list(sink.iter_events(kind)) == [e for e in events if e.kind == kind]


KINDS = ("forward", "deliver", "filtered", "gossip")
NAMES = ("zone", "to", "item", "hop", "latency", "node")
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.sampled_from(("/z0", "/z0/n1", "wire:1.r0", "")),
    st.tuples(st.sampled_from(("a", "b"))),
)
fields = st.lists(st.sampled_from(NAMES), unique=True, max_size=4).flatmap(
    lambda names: st.fixed_dictionaries({name: values for name in names})
)
# Simulation clocks are finite; an int clock (``run_until(days * DAY)``
# on an idle run) must read back as an int.
times = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2**53), 2**53),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("emit"), times, st.sampled_from(KINDS), fields),
        st.tuples(
            st.just("emit_many"),
            st.sampled_from(KINDS),
            st.lists(st.tuples(times, fields), max_size=6),
        ),
        st.tuples(st.just("clear")),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_differential_against_the_list_sink(ops):
    sink, legacy = MemorySink(), LegacyMemorySink()
    for op in ops:
        if op[0] == "emit":
            _, time, kind, event_fields = op
            sink.emit(time, kind, event_fields)
            legacy.emit(time, kind, event_fields)
        elif op[0] == "emit_many":
            _, kind, batch = op
            sink.emit_many(kind, batch)
            legacy.emit_many(kind, batch)
        else:
            sink.clear()
            legacy.clear()
        assert_same(sink, legacy)
    clone = pickle.loads(pickle.dumps(sink))
    assert_same(clone, legacy)
    assert clone.events == sink.events


def test_views_compare_only_with_lists_and_views():
    sink = MemorySink()
    sink.emit(1.0, "forward", {"to": "/a"})
    assert sink.events != tuple(sink.events)
    assert sink.events != sink.events[0]
    assert sink.events == [TraceEvent(1.0, "forward", (("to", "/a"),))]
    assert sink.events != [TraceEvent(1, "forward", (("to", "/a"),)), None]
    with pytest.raises(TypeError):
        hash(sink.events)
    with pytest.raises(AttributeError):
        sink.events.append  # read-only: no list mutators


def test_a_reader_sees_events_recorded_while_it_iterates():
    """As with the list: an event appended mid-iteration is yielded,
    including one of a shape first interned after the reader started."""
    sink, legacy = MemorySink(), LegacyMemorySink()
    for target in (sink, legacy):
        target.emit(0.0, "deliver", {"node": "/a"})
        target.emit(0.5, "forward", {"to": "/a"})
    seen = {}
    for name, target, reader in (
        ("sink", sink, sink.iter_events("deliver")),
        ("legacy", legacy, (e for e in legacy.events if e.kind == "deliver")),
    ):
        out = seen[name] = []
        for event in reader:
            out.append(event)
            if len(out) == 1:
                target.emit(1.0, "forward", {"to": "/b"})
                target.emit(2.0, "deliver", {"node": "/b", "hop": 2})
    assert seen["sink"] == seen["legacy"] and len(seen["sink"]) == 2
    assert list(sink.events) == legacy.events


def test_int_clock_reads_back_as_int():
    sim = Simulation(seed=1)
    sim.run_until(86400)
    log = TraceLog(sim)
    log.record("day", n=1)
    (event,) = log.events()
    assert event.time == 86400 and type(event.time) is int
    assert type(log.memory_sink().events[0].time) is int


class Recorder:
    """Keeps every emit and batch as it arrives, to replay later."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.calls.append(("emit", time, kind, dict(fields)))

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        self.calls.append(
            ("emit_many", kind, [(time, dict(f)) for time, f in events])
        )

    def clear(self) -> None:
        self.calls.append(("clear",))

    def close(self) -> None:
        pass


@pytest.mark.parametrize("name", ["e2", "e10"])
def test_every_event_of_a_quick_run(name):
    spec = get_spec(name)
    runs: list[tuple[TraceLog, Recorder]] = []

    def observe(log: TraceLog) -> Recorder:
        recorder = Recorder()
        runs.append((log, recorder))
        return recorder

    with instrumented(trace=[observe]):
        spec.runner(seed=0, **spec.quick_params)
    kinds: set[str] = set()
    for log, recorder in runs:
        sink, legacy = MemorySink(), LegacyMemorySink()
        for call in recorder.calls:
            getattr(sink, call[0])(*call[1:])
            getattr(legacy, call[0])(*call[1:])
        assert_same(sink, legacy)
        memory = log.memory_sink()
        if memory is not None:
            assert memory.events == legacy.events
        kinds |= {event.kind for event in legacy.events}
    assert {"publish", "forward", "deliver"} <= kinds
