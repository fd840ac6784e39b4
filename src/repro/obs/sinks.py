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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.obs.metrics import DEFAULT_BUCKETS, HistogramData

#: What ``emit_many`` takes: same-kind ``(time, fields)`` pairs in order.
TraceBatch = Sequence[Tuple[float, Mapping[str, Any]]]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded milestone."""

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

    Memory grows linearly with recorded events, which is what caps the
    population sizes the append-everything design could reach; use
    :class:`StreamingSink` when the retained list would not fit.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.events.append(TraceEvent(time, kind, tuple(fields.items())))

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        self.events.extend(
            TraceEvent(time, kind, tuple(fields.items())) for time, fields in events
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

    def __repr__(self) -> str:
        return f"MemorySink({len(self.events)} events)"


class StreamingSink:
    """Folds events into aggregates as they arrive — bounded memory.

    Retained state is O(kinds + items + nodes + histogram buckets),
    independent of how many events flow through: a run publishing 10x
    the items retains the same *event* count (zero) and merely bumps
    integers.  What it keeps:

    * per-kind event counts;
    * a latency histogram over ``latency_kind`` events (approximate
      percentiles, exact count/mean/min/max);
    * per-item delivery counts (delivery-ratio numerators);
    * per-node delivery counts and per-target forward counts (the
      trace-level send/recv view; wire-level byte counters live in
      :meth:`repro.sim.network.Network.node_stats`).
    """

    def __init__(
        self,
        latency_kind: str = "deliver",
        forward_kind: str = "forward",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.latency_kind = latency_kind
        self.forward_kind = forward_kind
        self.counts: Dict[str, int] = {}
        self.latency = HistogramData(buckets)
        self.deliveries_per_item: Dict[str, int] = {}
        self.deliveries_per_node: Dict[str, int] = {}
        self.forwards_per_target: Dict[str, int] = {}
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self.events_seen = 0

    def emit(self, time: float, kind: str, fields: Mapping[str, Any]) -> None:
        self.events_seen += 1
        if self.first_time is None:
            self.first_time = time
        self.last_time = time
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == self.latency_kind:
            latency = fields.get("latency")
            if latency is not None:
                self.latency.observe(latency)
            item = fields.get("item")
            if item is not None:
                self.deliveries_per_item[item] = (
                    self.deliveries_per_item.get(item, 0) + 1
                )
            node = fields.get("node")
            if node is not None:
                self.deliveries_per_node[node] = (
                    self.deliveries_per_node.get(node, 0) + 1
                )
        elif kind == self.forward_kind:
            target = fields.get("to")
            if target is not None:
                self.forwards_per_target[target] = (
                    self.forwards_per_target.get(target, 0) + 1
                )

    def emit_many(self, kind: str, events: TraceBatch) -> None:
        """``emit`` for a same-kind batch: the per-kind bookkeeping once,
        the per-event bumps in event order (float sums stay bit-equal)."""
        if not events or kind != self.latency_kind:
            for time, fields in events:
                self.emit(time, kind, fields)
            return
        self.events_seen += len(events)
        if self.first_time is None:
            self.first_time = events[0][0]
        self.last_time = events[-1][0]
        self.counts[kind] = self.counts.get(kind, 0) + len(events)
        per_item = self.deliveries_per_item
        per_node = self.deliveries_per_node
        latencies = []
        for _, fields in events:
            latency = fields.get("latency")
            if latency is not None:
                latencies.append(latency)
            item = fields.get("item")
            if item is not None:
                per_item[item] = per_item.get(item, 0) + 1
            node = fields.get("node")
            if node is not None:
                per_node[node] = per_node.get(node, 0) + 1
        self.latency.observe_many(latencies)

    @property
    def retained_events(self) -> int:
        """Always 0: the streaming sink never keeps an event object."""
        return 0

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def merge(self, other: "StreamingSink") -> None:
        """Fold another sink's aggregates in (parallel-worker merge).

        Both sinks must watch the same kinds and share histogram
        bounds; merging in canonical cell order keeps the combined
        aggregates identical to one sink observing the whole run.
        """
        if (
            other.latency_kind != self.latency_kind
            or other.forward_kind != self.forward_kind
        ):
            raise ValueError(
                "cannot merge StreamingSinks watching different kinds: "
                f"({self.latency_kind!r}, {self.forward_kind!r}) vs "
                f"({other.latency_kind!r}, {other.forward_kind!r})"
            )
        self.events_seen += other.events_seen
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        self.latency.merge(other.latency)
        for item, count in other.deliveries_per_item.items():
            self.deliveries_per_item[item] = (
                self.deliveries_per_item.get(item, 0) + count
            )
        for node, count in other.deliveries_per_node.items():
            self.deliveries_per_node[node] = (
                self.deliveries_per_node.get(node, 0) + count
            )
        for target, count in other.forwards_per_target.items():
            self.forwards_per_target[target] = (
                self.forwards_per_target.get(target, 0) + count
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
        self.latency = HistogramData(self.latency.bounds)
        self.deliveries_per_item.clear()
        self.deliveries_per_node.clear()
        self.forwards_per_target.clear()
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
            "distinct_delivery_nodes": len(self.deliveries_per_node),
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
