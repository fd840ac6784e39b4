"""Metrics: latency/ratio collectors, summaries, table output."""

from repro.metrics.collectors import (
    DeliveryStats,
    collect_delivery_stats,
    delivery_latencies,
    delivery_ratio,
    latency_summary,
)
from repro.metrics.report import format_table, format_value
from repro.metrics.stats import Summary, percentile, ratio
from repro.metrics.timeline import TimeBucket, bucketize, event_timeline, sparkline

__all__ = [
    "DeliveryStats",
    "Summary",
    "TimeBucket",
    "bucketize",
    "collect_delivery_stats",
    "delivery_latencies",
    "delivery_ratio",
    "event_timeline",
    "format_table",
    "format_value",
    "latency_summary",
    "percentile",
    "ratio",
    "sparkline",
]
