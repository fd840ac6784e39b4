"""Structured event tracing for experiments and debugging.

Protocol layers record milestones ("published", "delivered",
"forwarded", "filtered", ...) into a :class:`TraceLog`.  The log is a
*fan-out dispatcher*: each hot path emits once and the log forwards
the record to every attached :class:`~repro.obs.sinks.TraceSink` — by
default a single :class:`~repro.obs.sinks.MemorySink`, which retains
every event exactly as the original append-everything design did.
Large runs swap in a :class:`~repro.obs.sinks.StreamingSink` (bounded
memory) and/or a :class:`~repro.obs.sinks.JsonlFileSink` (offline
artifact).

The log also owns the deployment's
:class:`~repro.obs.metrics.MetricsRegistry`, so every layer holding a
trace reference can register counters without extra plumbing.

Recording stays cheap (a counter bump plus one ``emit`` per sink; a
bulk producer hands :meth:`TraceLog.record_many` a whole batch for one
``emit_many`` per sink) and can be restricted to the event kinds an
experiment cares about; sinks never touch simulation RNG or the event
queue, so attaching them cannot perturb a fixed-seed run.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import MemorySink, StreamingSink, TraceBatch, TraceEvent, TraceSink
from repro.sim import engine

__all__ = ["TraceEvent", "TraceLog"]

_EMPTY: tuple = ()

def _emit_each(emit: Callable, kind: str, events: TraceBatch) -> None:
    """``emit_many`` for a sink that only defines ``emit``."""
    for time, fields in events:
        emit(time, kind, fields)


class TraceLog:
    """Fan-out dispatcher of :class:`TraceEvent` records to sinks."""

    def __init__(
        self,
        sim,
        kinds: Optional[set[str]] = None,
        sinks: Optional[Sequence[TraceSink]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """``kinds`` restricts recording to the given event kinds
        (``None`` records everything); ``sinks`` defaults to a single
        :class:`MemorySink` (the historical behaviour).  Inside an
        :func:`~repro.sim.engine.instrumented` block the block's trace
        observers follow ``sinks`` and its registry stands in for an
        unset ``metrics``."""
        _, factories, observed_metrics = engine._INSTRUMENTS
        self.sim = sim
        self.kinds = kinds
        if metrics is None:
            metrics = observed_metrics
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counts: Dict[str, int] = {}
        self._sinks: list[TraceSink] = (
            [MemorySink()] if sinks is None else list(sinks)
        )
        for factory in factories:
            observer = factory(self)
            if observer is not None:
                self._sinks.append(observer)
        self._rebind()

    def _rebind(self) -> None:
        """Cache the per-sink emit methods and the primary memory sink."""
        self._emits = tuple(sink.emit for sink in self._sinks)
        self._emit_manys = tuple(
            getattr(sink, "emit_many", None) or partial(_emit_each, sink.emit)
            for sink in self._sinks
        )
        self._memory: Optional[MemorySink] = next(
            (s for s in self._sinks if isinstance(s, MemorySink)), None
        )

    # -- sink management -------------------------------------------------

    @property
    def sinks(self) -> tuple[TraceSink, ...]:
        return tuple(self._sinks)

    def add_sink(self, sink: TraceSink) -> TraceSink:
        """Attach ``sink``; it sees events recorded from now on."""
        self._sinks.append(sink)
        self._rebind()
        return sink

    def memory_sink(self) -> Optional[MemorySink]:
        """The first attached :class:`MemorySink`, if any."""
        return self._memory

    def streaming_sink(self) -> Optional[StreamingSink]:
        """The first attached :class:`StreamingSink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, StreamingSink):
                return sink
        return None

    @property
    def wants_expectations(self) -> bool:
        """Whether any attached sink takes :meth:`expect` — a runner
        checks this before deriving expectations nobody would read."""
        return any(hasattr(sink, "expect") for sink in self._sinks)

    def expect(self, item: str, nodes: Iterable[str]) -> None:
        """Tell every attached sink that defines ``expect`` (a
        ``CausalSink``, an ``InvariantSuite``) which nodes should
        deliver ``item``."""
        for sink in self._sinks:
            if hasattr(sink, "expect"):
                sink.expect(item, nodes)

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self._sinks:
            sink.close()

    # -- recording --------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Record ``kind`` with arbitrary fields at the current time."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if self.kinds is not None and kind not in self.kinds:
            return
        time = self.sim.now
        for emit in self._emits:
            emit(time, kind, fields)

    def record_many(self, kind: str, events: TraceBatch) -> None:
        """Record ``(time, fields)`` events of one kind, in order.  The
        times are the producer's: a bulk-lane handler's rows fired
        before ``sim.now`` (``docs/SIMULATOR.md``)."""
        if not events:
            return
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + len(events)
        if self.kinds is not None and kind not in self.kinds:
            return
        for emit_many in self._emit_manys:
            emit_many(kind, events)

    # -- reading ----------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> Iterator[TraceEvent]:
        """Iterate retained events, optionally filtered by kind.

        Only a :class:`MemorySink` retains events; with streaming-only
        sinks this is empty and readers should consume sink aggregates
        (see :mod:`repro.metrics.collectors`).
        """
        memory = self._memory
        if memory is None:
            return iter(_EMPTY)
        return memory.iter_events(kind)

    def count(self, kind: str) -> int:
        """How many times ``kind`` was recorded (even if not retained)."""
        return self._counts.get(kind, 0)

    def counts(self) -> Dict[str, int]:
        """Snapshot of every kind's record count (retained or not)."""
        return dict(self._counts)

    @property
    def retained_events(self) -> int:
        """Events held in memory across all sinks (streaming keeps 0)."""
        return sum(
            getattr(sink, "retained_events", 0) for sink in self._sinks
        )

    def clear(self) -> None:
        self._counts.clear()
        for sink in self._sinks:
            sink.clear()

    def __len__(self) -> int:
        memory = self._memory
        return len(memory) if memory is not None else 0

    def __repr__(self) -> str:
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self._counts.items())
        )
        return f"TraceLog({summary})"
