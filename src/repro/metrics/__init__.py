"""Metrics: latency/ratio collectors, summaries, table/series output."""

from repro.metrics.collectors import (
    DeliveryStats,
    NodeLoad,
    collect_delivery_stats,
    deliveries_per_item,
    delivery_latencies,
    delivery_ratio,
    forwarding_efficiency,
    latency_summary,
    node_load,
)
from repro.metrics.report import (
    format_series,
    format_table,
    format_value,
    print_series,
    print_table,
)
from repro.metrics.stats import Summary, cdf_points, percentile, ratio
from repro.metrics.timeline import (
    TimeBucket,
    bucketize,
    event_timeline,
    rate_series,
    sparkline,
)

__all__ = [
    "DeliveryStats",
    "NodeLoad",
    "Summary",
    "TimeBucket",
    "bucketize",
    "event_timeline",
    "rate_series",
    "sparkline",
    "cdf_points",
    "collect_delivery_stats",
    "deliveries_per_item",
    "delivery_latencies",
    "delivery_ratio",
    "format_series",
    "format_table",
    "format_value",
    "forwarding_efficiency",
    "latency_summary",
    "node_load",
    "percentile",
    "print_series",
    "print_table",
    "ratio",
]
