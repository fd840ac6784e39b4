"""Pluggable trace sinks: where recorded milestones go.

The hot paths call :meth:`repro.sim.trace.TraceLog.record` exactly
once per milestone; the log fans the record out to every attached
sink.  Three sinks cover the use cases:

* :class:`MemorySink` — retain every event (the original ``TraceLog``
  behaviour; exact percentiles, default for tests and small runs);
* :class:`StreamingSink` — fold events into O(aggregate) state as they
  happen (bounded memory; what large-population runs use);
* :class:`JsonlFileSink` — append one JSON line per event for offline
  analysis.

Sinks receive ``(time, kind, fields)`` and must not raise, block, or
touch any simulation random stream — a sink that perturbed RNG or
event order would invalidate every fixed-seed fingerprint.

A sink may also define ``emit_many(kind, events)`` to take a batch from
:meth:`~repro.sim.trace.TraceLog.record_many` in one call; it must
leave the sink as the same events through ``emit``, in order, would.
Sinks without it are fed the batch one ``emit`` at a time.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import FrozenInstanceError
from pathlib import Path
from typing import Any, Dict, IO, Iterator, Mapping, Optional, Protocol, Tuple, Union

from repro.obs.metrics import DEFAULT_BUCKETS, HistogramData

#: What ``emit_many`` takes: same-kind ``(time, fields)`` pairs in order.
TraceBatch = Sequence[Tuple[float, Mapping[str, Any]]]


class TraceEvent:
    """One recorded milestone: ``time``, ``kind`` and its ``fields``.

    The field names and the field values sit in two parallel tuples; a
    :class:`MemorySink` builds events on read from its columns and hands
    every event of one field shape the same names tuple.
    ``fields`` rebuilds the ``(name, value)`` pairs on demand.  Events
    are immutable; equality, hashing, ``repr`` and pickling go through
    ``(time, kind, fields)``.
    """

    __slots__ = ("time", "kind", "_keys", "_values")

    def __init__(self, time: float, kind: str, fields: tuple[tuple[str, Any], ...]):
        _set_time(self, time)
        _set_kind(self, kind)
        _set_keys(self, tuple(name for name, _ in fields))
        _set_values(self, tuple(value for _, value in fields))

    @property
    def fields(self) -> tuple[tuple[str, Any], ...]:
        return tuple(zip(self._keys, self._values))

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self._keys, self._values))

    def __eq__(self, other: object) -> Any:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return (self.time, self.kind, self._keys, self._values) == (
            other.time,
            other.kind,
            other._keys,
            other._values,
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.fields))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (TraceEvent, (self.time, self.kind, self.fields))

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"fields={self.fields!r})"
        )


# Slot descriptors write past the frozen ``__setattr__``.
_set_time, _set_kind, _set_keys, _set_values = (
    TraceEvent.__dict__[name].__set__ for name in TraceEvent.__slots__
)


def _event(time: float, kind: str, keys: tuple, values: tuple) -> TraceEvent:
    """A :class:`TraceEvent` from ready-made names and values tuples."""
    event = object.__new__(TraceEvent)
    _set_time(event, time)
    _set_kind(event, kind)
    _set_keys(event, keys)
    _set_values(event, values)
    return event


class TraceSink(Protocol):
    """What a :class:`~repro.sim.trace.TraceLog` dispatches to."""

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        """Consume one milestone.  Must be cheap and side-effect-local."""
        ...

    def clear(self) -> None:
        """Drop accumulated state (between experiment phases)."""
        ...

    def close(self) -> None:
        """Release external resources (files); further emits are undefined."""
        ...


class MemorySink:
    """Retains every event — the exact-answers sink.

    Events are kept as columns, not as objects: per event its time (an
    ``array('d')``), its shape id and where its values start (two
    ``array('I')``), and every event's field values back to back in one
    flat list.  A *shape* is one ``(kind, field names)`` pair, interned
    once; the names tuple is shared by every event of the shape.  A
    time that is not a float (an int clock) is kept aside by event
    index, so it reads back with its own type.

    :attr:`events` is a read-only sequence view that builds each
    :class:`TraceEvent` on read.  Memory grows linearly with recorded
    events, which is what caps the population sizes the
    append-everything design could reach; use :class:`StreamingSink`
    when the retained columns would not fit.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._shape_ids = array("I")
        self._starts = array("I")
        self._values: list = []
        #: Non-float times by event index.
        self._odd_times: Dict[int, Any] = {}
        #: ``(kind, names, width)`` per shape id.
        self._shapes: list[tuple[str, tuple, int]] = []
        #: Shape id per ``(kind, *names)``.
        self._shape_of: Dict[tuple, int] = {}

    def _intern(self, key: tuple) -> int:
        shape = len(self._shapes)
        names = key[1:]
        self._shapes.append((key[0], names, len(names)))
        self._shape_of[key] = shape
        return shape

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.emit_many(kind, ((time, fields),))

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        shape_of = self._shape_of
        times = self._times
        odd_times = self._odd_times
        shape_ids = self._shape_ids
        starts = self._starts
        values = self._values
        for time, fields in events:
            key = (kind, *fields)
            shape = shape_of.get(key)
            if shape is None:
                shape = self._intern(key)
            if time.__class__ is not float:
                odd_times[len(times)] = time
                time = 0.0
            times.append(time)
            shape_ids.append(shape)
            starts.append(len(values))
            values.extend(fields.values())

    @property
    def events(self) -> "EventView":
        """The retained events, oldest first, as a read-only sequence."""
        return EventView(self)

    def _event(self, index: int) -> TraceEvent:
        kind, names, width = self._shapes[self._shape_ids[index]]
        start = self._starts[index]
        time = self._odd_times.get(index, self._times[index])
        return _event(time, kind, names, tuple(self._values[start : start + width]))

    def iter_events(self, kind: Optional[str] = None) -> Iterator[TraceEvent]:
        """Retained events in order, or those of one ``kind``: the
        filter reads shape ids and builds only the events it yields."""
        shapes = self._shapes
        wanted: set = set()
        known = 0
        for index, shape in enumerate(self._shape_ids):
            if kind is not None:
                if shape >= known:  # a shape interned since the last look
                    wanted.update(
                        s for s in range(known, len(shapes)) if shapes[s][0] == kind
                    )
                    known = len(shapes)
                if shape not in wanted:
                    continue
            yield self._event(index)

    @property
    def retained_events(self) -> int:
        return len(self._times)

    def clear(self) -> None:
        del self._times[:]
        del self._shape_ids[:]
        del self._starts[:]
        self._values.clear()
        self._odd_times.clear()

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:
        return f"MemorySink({len(self._times)} events)"


class EventView(Sequence):
    """Read-only sequence over a :class:`MemorySink`'s events.

    Answers ``len``, truth, indexing (negative too), slicing (a list),
    iteration and ``==`` against a list or another view as the list of
    :class:`TraceEvent` it replaces did; each event is built on read.
    """

    __slots__ = ("_sink",)

    def __init__(self, sink: MemorySink):
        self._sink = sink

    def __len__(self) -> int:
        return len(self._sink._times)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._sink._event(i) for i in range(*index.indices(len(self)))]
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("event index out of range")
        return self._sink._event(index)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._sink.iter_events()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventView, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine is theirs or mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))


class StreamingSink:
    """Folds events into aggregates as they arrive — bounded memory.

    Retained state is O(kinds + items + histogram buckets), independent
    of how many events flow through and of how many nodes deliver: a
    run publishing 10x the items retains the same *event* count (zero)
    and merely bumps integers.  What it keeps:

    * per-kind event counts;
    * a latency histogram over ``deliver`` events (approximate
      percentiles, exact count/mean/min/max);
    * per-item delivery counts (delivery-ratio numerators).

    Per-node receive counts are not kept; wire-level per-node counters
    live in :meth:`repro.sim.network.Network.node_stats`.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.latency = HistogramData(DEFAULT_BUCKETS)
        self.deliveries_per_item: Dict[str, int] = {}
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self.events_seen = 0

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.emit_many(kind, ((time, fields),))

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        """Fold a same-kind batch: the per-kind bookkeeping once, the
        ``deliver`` fields in event order (float sums stay bit-equal)."""
        if not events:
            return
        self.events_seen += len(events)
        if self.first_time is None:
            self.first_time = events[0][0]
        self.last_time = events[-1][0]
        self.counts[kind] = self.counts.get(kind, 0) + len(events)
        if kind != "deliver":
            return
        per_item = self.deliveries_per_item
        latencies = []
        for _, fields in events:
            latency = fields.get("latency")
            if latency is not None:
                latencies.append(latency)
            item = fields.get("item")
            if item is not None:
                per_item[item] = per_item.get(item, 0) + 1
        self.latency.observe_many(latencies)

    @property
    def retained_events(self) -> int:
        """Always 0: the streaming sink never keeps an event object."""
        return 0

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def merge(self, other: "StreamingSink") -> None:
        """Fold another sink's aggregates in (parallel-worker merge).

        Merging in canonical cell order keeps the combined aggregates
        identical to one sink observing the whole run.
        """
        self.events_seen += other.events_seen
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        self.latency.merge(other.latency)
        for item, count in other.deliveries_per_item.items():
            self.deliveries_per_item[item] = (
                self.deliveries_per_item.get(item, 0) + count
            )
        if other.first_time is not None and (
            self.first_time is None or other.first_time < self.first_time
        ):
            self.first_time = other.first_time
        if other.last_time is not None and (
            self.last_time is None or other.last_time > self.last_time
        ):
            self.last_time = other.last_time

    def clear(self) -> None:
        self.counts.clear()
        self.latency = HistogramData(DEFAULT_BUCKETS)
        self.deliveries_per_item.clear()
        self.first_time = None
        self.last_time = None
        self.events_seen = 0

    def close(self) -> None:
        pass

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able aggregate snapshot (manifest / ``--json`` payload)."""
        return {
            "events_seen": self.events_seen,
            "counts": dict(sorted(self.counts.items())),
            "latency": self.latency.as_dict(),
            "distinct_items": len(self.deliveries_per_item),
            "first_time": self.first_time,
            "last_time": self.last_time,
        }

    def __repr__(self) -> str:
        return (
            f"StreamingSink(events_seen={self.events_seen}, "
            f"kinds={len(self.counts)}, items={len(self.deliveries_per_item)})"
        )


def normalize_field(value: Any) -> Any:
    """Fold one trace-field value into a JSON-native shape.

    Containers are normalized *recursively* — a ``labels=tuple(...)``
    field becomes a JSON array of strings, not the ``"('a', 'b')"``
    stringification ``json.dumps(default=str)`` would produce — so
    offline traces stay machine-readable.  Sets are sorted for
    determinism; non-native scalars (``ZonePath``, ``ItemId``) still
    fall back to ``str``.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(key): normalize_field(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return [normalize_field(item) for item in sorted(value, key=str)]
    if isinstance(value, (list, tuple)):
        return [normalize_field(item) for item in value]
    return str(value)


class JsonlFileSink:
    """Appends one JSON object per event to a file — the offline artifact.

    Fields are normalized with :func:`normalize_field`: containers
    become JSON arrays/objects recursively, non-native scalars
    (``ZonePath``, ``ItemId``...) become strings.  The file is opened
    *line-buffered* (``buffering=1``), so every emitted event reaches
    the OS before the next one — a crash mid-run loses at most the
    line being written, never the buffered tail of the trace.

    Semantics of the sink protocol here:

    * :meth:`clear` is a no-op — lines already written are an artifact
      on disk, not in-memory state to drop;
    * :meth:`close` closes the file (flushing any partial line) and is
      idempotent; emits after ``close()`` are silently ignored.  Use
      the sink as a context manager to get ``close()`` on exit.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # buffering=1: line-buffered, matching the docstring's promise.
        self._file: Optional[IO[str]] = self.path.open(
            "w", encoding="utf-8", buffering=1
        )
        self.lines_written = 0

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        if self._file is None:
            return
        record = {"t": time, "kind": kind}
        for key, value in fields.items():
            record[key] = normalize_field(value)
        self._file.write(json.dumps(record, default=str) + "\n")
        self.lines_written += 1

    @property
    def retained_events(self) -> int:
        return 0

    def clear(self) -> None:
        pass  # already-written lines are an artifact, not state

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"JsonlFileSink({self.path}, {self.lines_written} lines)"
