"""Extract experiment metrics from traces, sinks and network counters.

The collectors prefer the cheapest source that can answer the
question (see ``docs/OBSERVABILITY.md``):

* with a retained-event :class:`~repro.obs.sinks.MemorySink`, one
  shared trace pass (:func:`collect_delivery_stats`) yields exact
  latencies *and* per-item counts — callers that previously scanned
  the trace twice now share the pass;
* with only a :class:`~repro.obs.sinks.StreamingSink` attached, the
  same collectors consume the sink's bounded-memory aggregates
  (approximate percentiles from the histogram buckets, exact per-item
  counts) so large runs never have to retain events at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.trace import TraceLog
from repro.metrics.stats import Summary, ratio


@dataclass
class DeliveryStats:
    """Everything one pass over the delivery events can tell us.

    ``latencies`` is empty when the stats came from a streaming sink
    (``source == "streaming"``); ``summary`` is then approximate
    (bucket-interpolated) but ``per_item`` stays exact.  Both sources
    count deliveries per item, not per node: the state a streaming run
    keeps is O(kinds + items + histogram buckets).
    """

    source: str  # "memory" | "streaming" | "empty"
    latencies: list[float] = field(default_factory=list)
    per_item: Dict[str, int] = field(default_factory=dict)
    summary: Summary = field(default_factory=lambda: Summary.of(()))

    @property
    def total_deliveries(self) -> int:
        return sum(self.per_item.values())


def collect_delivery_stats(trace: TraceLog) -> DeliveryStats:
    """One shared pass over ``deliver`` events (or sink aggregates).

    Preference order: retained memory events (exact), then a
    :class:`StreamingSink`'s aggregates (approximate summary, exact
    counts), then the bare kind counter (counts only).
    """
    memory = trace.memory_sink()
    if memory is not None and memory.events:
        latencies: list[float] = []
        per_item: Dict[str, int] = {}
        for event in trace.events("deliver"):
            latency = event.get("latency")
            if latency is not None:
                latencies.append(latency)
            item = event.get("item")
            if item is not None:
                per_item[item] = per_item.get(item, 0) + 1
        return DeliveryStats(
            source="memory",
            latencies=latencies,
            per_item=per_item,
            summary=Summary.of(latencies),
        )

    streaming = trace.streaming_sink()
    if streaming is not None:
        histogram = streaming.latency
        summary = Summary(
            count=histogram.count,
            mean=histogram.mean,
            minimum=histogram.minimum if histogram.count else 0.0,
            p50=histogram.quantile(0.50),
            p90=histogram.quantile(0.90),
            p99=histogram.quantile(0.99),
            maximum=histogram.maximum if histogram.count else 0.0,
        )
        return DeliveryStats(
            source="streaming",
            per_item=dict(streaming.deliveries_per_item),
            summary=summary,
        )

    return DeliveryStats(source="empty")


def delivery_latencies(trace: TraceLog) -> list[float]:
    """Publish→deliver latencies recorded in the trace.

    Exact values need retained events; with streaming-only sinks this
    is empty — use :func:`collect_delivery_stats` for the approximate
    summary instead.
    """
    return collect_delivery_stats(trace).latencies


def latency_summary(trace: TraceLog) -> Summary:
    return collect_delivery_stats(trace).summary


def delivery_ratio(
    trace: TraceLog,
    expected: Dict[str, int],
    stats: Optional[DeliveryStats] = None,
) -> float:
    """Delivered / expected across items (``expected``: item -> count).

    Pass a pre-collected ``stats`` to share one trace pass with other
    collectors.
    """
    if stats is None:
        stats = collect_delivery_stats(trace)
    total_expected = sum(expected.values())
    if stats.source == "empty":
        # No aggregating sink attached: fall back to the always-on
        # deliver counter.  Over-delivery can't be capped per item from a
        # bare total, so cap at the aggregate expectation instead.
        return ratio(min(trace.count("deliver"), total_expected), total_expected)
    delivered = stats.per_item
    total_delivered = sum(
        min(delivered.get(item, 0), want) for item, want in expected.items()
    )
    return ratio(total_delivered, total_expected)
