"""The compact ``TraceEvent`` layout answers exactly as the dataclass did.

``MemorySink`` keeps every event, so an event stores its field names
and values as two parallel tuples (the names tuple shared per field
shape) instead of a tuple of pairs.  These tests pin that the readers
see no difference, against a copy of the dataclass it replaced, and
bound what one retained event costs.
"""

from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Dict

import pytest

from repro.experiments.e2_latency import run_e2
from repro.obs.sinks import MemorySink, TraceEvent
from repro.sim.engine import instrumented


@dataclass(frozen=True)
class LegacyTraceEvent:
    """The dataclass ``TraceEvent`` replaced, kept verbatim as the oracle."""

    time: float
    kind: str
    fields: tuple[tuple[str, Any], ...]

    def __getitem__(self, key: str) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.fields)


# The dataclass repr names the class by its qualified name.
LegacyTraceEvent.__qualname__ = "TraceEvent"


@pytest.fixture(scope="module")
def e2_events() -> list[TraceEvent]:
    """A handful of retained events of every kind a quick E2 records."""
    logs = []
    with instrumented(trace=[logs.append]):
        run_e2(sizes=(100,), items=3)
    per_kind: dict[str, list[TraceEvent]] = {}
    for log in logs:
        for event in log.events():
            sample = per_kind.setdefault(event.kind, [])
            if len(sample) < 4:
                sample.append(event)
    assert {"publish", "forward", "deliver", "filtered"} <= set(per_kind)
    return [event for sample in per_kind.values() for event in sample]


def test_every_reader_matches_the_dataclass(e2_events):
    for event in e2_events:
        legacy = LegacyTraceEvent(event.time, event.kind, event.fields)
        rebuilt = TraceEvent(event.time, event.kind, legacy.fields)
        for candidate in (event, rebuilt):
            assert candidate.fields == legacy.fields
            for name, _ in legacy.fields:
                assert candidate[name] == legacy[name]
                assert candidate.get(name) == legacy.get(name)
            with pytest.raises(KeyError):
                candidate["no-such-field"]
            assert candidate.get("no-such-field", "dflt") == "dflt"
            assert candidate.as_dict() == legacy.as_dict()
            assert hash(candidate) == hash(legacy)
            assert repr(candidate) == repr(legacy)
            clone = pickle.loads(pickle.dumps(candidate))
            assert clone == candidate
            assert repr(clone) == repr(legacy)
            assert hash(clone) == hash(legacy)
        assert event == rebuilt


def test_equality_agrees_pairwise(e2_events):
    legacies = [LegacyTraceEvent(e.time, e.kind, e.fields) for e in e2_events]
    for event, legacy in zip(e2_events, legacies):
        for other, other_legacy in zip(e2_events, legacies):
            assert (event == other) == (legacy == other_legacy)
            assert (event != other) == (legacy != other_legacy)
        assert event != legacy  # a different class, as dataclasses compare


def test_events_are_immutable():
    event = TraceEvent(1.0, "forward", (("to", "/a/b"),))
    with pytest.raises(FrozenInstanceError):
        event.kind = "deliver"
    with pytest.raises(FrozenInstanceError):
        del event.time
    assert event.kind == "forward"


def test_one_names_tuple_per_field_shape():
    sink = MemorySink()
    sink.emit(0.0, "forward", {"zone": "/a", "to": "/a/b", "hop": 1})
    sink.emit_many(
        "forward",
        [(1.0, {"zone": "/c", "to": "/c/d", "hop": 2})],
    )
    sink.emit(2.0, "filtered", {"zone": "/a", "item": "p:1.r0"})
    first, second, third = sink.events
    assert first._keys is second._keys
    assert first._keys is not third._keys
    assert second.as_dict() == {"zone": "/c", "to": "/c/d", "hop": 2}


def test_retained_forward_event_stays_compact():
    """Bytes one retained ``forward`` event costs in a ``MemorySink``.

    Allocation sizes are deterministic, so this is a fixed number per
    interpreter build: on CPython 3.11 the pair-tuple dataclass took
    about 460 B, one compact event object about 150 B, and the column
    store about 58 B (a float and two 4-byte ints in arrays, five value
    pointers, and the columns' growth slack).  The field values are
    shared strings and a small int, as the emitters pass them; each
    event gets its own time float, allocated up front like the
    simulation clock's.
    """
    count = 10_000
    fields = {
        "zone": "/z3/z1",
        "to": "/z3/z1/n7",
        "item": "wire:12.r0",
        "parent": "/z0/n2",
        "hop": 2,
    }
    times = [index / 7 for index in range(count)]
    sink = MemorySink()
    sink.emit(0.0, "forward", dict(fields))  # the shape's names tuple
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for time in times:
            sink.emit(time, "forward", dict(fields))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sink) == count + 1
    assert retained / count <= 64
