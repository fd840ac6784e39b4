"""E4 — robustness under publisher overload / DoS (abstract, §1).

Claim: "guarantees delivery even in the face of publisher overload or
denial of service attacks"; §1: "As we have seen during the terrorist
attacks in September 2001, Internet news sites become completely
useless under overload, failing even to service a small percentage of
the visitors."

Setup: identical breaking-news workload under an escalating request
flood aimed at the content source.

* **Centralized pull**: the flood and the legitimate polls share the
  origin's bounded service capacity; we measure the fraction of
  legitimate requests served and item freshness during the attack.
* **NewsWire**: consumers never contact the publisher, so the same
  flood only wastes the publisher's inbound bandwidth; dissemination
  rides the peer-to-peer tree.  We additionally *crash* the publisher
  right after the burst to show delivery completes without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.identifiers import ItemId, ZonePath
from repro.sim.engine import Simulation
from repro.sim.failures import FailureInjector
from repro.sim.network import HierarchicalLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    publish_at_origin,
    story_trace,
    validate_non_negative,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.metrics.collectors import collect_delivery_stats, delivery_ratio
from repro.metrics.stats import Summary
from repro.pubsub.subscription import Subscription

SUBJECT = "reuters/world"


@dataclass(frozen=True)
class E4Row:
    system: str
    flood_rate: float
    served_ratio: float       # legit requests served (pull); 1.0 for NewsWire
    delivery_ratio: float     # fraction of expected item deliveries achieved
    latency_p90: float


@dataclass
class E4Result(TableResult):
    rows: list[E4Row]

    title = (
        "E4: behaviour under DoS flood at the content source "
        "(paper: pull origins collapse; NewsWire keeps delivering)"
    )
    columns = (
        ("system", "system"),
        ("flood req/s", "flood_rate"),
        ("legit served", "served_ratio"),
        ("delivery ratio", "delivery_ratio"),
        ("p90 latency (s)", "latency_p90"),
    )


def _burst_trace(start: float, items: int):
    return story_trace(
        start, items, (SUBJECT,), spacing=2.0, body_words=150,
        headline="breaking", urgency=lambda index: 1,
    )


def _run_pull_under_flood(
    num_clients: int,
    flood_rate: float,
    items: int,
    seed: int,
    poll_interval: float = 30.0,
    capacity: float = 100.0,
) -> tuple[E4Row, TraceLog]:
    sim = Simulation(seed=seed)
    network = Network(sim, latency=HierarchicalLatency())
    trace_log = TraceLog(sim, kinds={"pull-deliver"})
    origin = OriginServer(
        ZonePath.parse("/origin/www"), sim, network,
        capacity=capacity, max_queue=50, trace=trace_log,
    )
    failures = FailureInjector(sim, network)
    for index in range(num_clients):
        PullClient(
            ZonePath.parse(f"/subs/s{index}"), sim, network, origin.node_id,
            poll_interval=poll_interval, mode="delta", trace=trace_log,
        ).start()
    publish_at_origin(sim, origin, _burst_trace(60.0, items), "www")
    if flood_rate > 0:
        failures.flood(
            origin.node_id, rate=flood_rate, start=30.0, duration=300.0
        )
    sim.run_until(60.0 + items * 2.0 + 3 * poll_interval)

    delivered = list(trace_log.events("pull-deliver"))  # events() is one-shot
    latencies = [e["latency"] for e in delivered]
    served_ratio = (
        origin.stats.served / origin.stats.requests if origin.stats.requests else 0.0
    )
    row = E4Row(
        system="pull",
        flood_rate=flood_rate,
        served_ratio=served_ratio,
        delivery_ratio=(
            len({(e["node"], e["item"]) for e in delivered}) / (num_clients * items)
        ),
        latency_p90=Summary.of(latencies).p90 if latencies else float("inf"),
    )
    return row, trace_log


def _run_newswire_under_flood(
    num_nodes: int,
    flood_rate: float,
    items: int,
    seed: int,
    crash_publisher_after_burst: bool = True,
    *,
    label: Optional[str] = None,
    network: Mapping[str, float] = {},
    flood_duration: float = 300.0,
    flood_message_size: int = 1024,
    drain_time: float = 60.0,
) -> tuple[E4Row, TraceLog]:
    # Everyone subscribes to the breaking subject: a flash crowd.
    system, _ = build_system(
        SystemSpec(
            num_nodes=num_nodes,
            subscriptions_for=lambda index: (Subscription(SUBJECT),),
            publisher_names=("reuters",),
            seed=seed,
            settle_rounds=2,
            network=network,
        )
    )
    publisher = system.publisher("reuters")
    start = system.sim.now + 10.0
    drive_trace(system, "reuters", _burst_trace(start, items))
    if flood_rate > 0:
        system.deployment.failures.flood(
            publisher.node_id, rate=flood_rate, start=start - 5.0,
            duration=flood_duration, message_size=flood_message_size,
        )
    if crash_publisher_after_burst:
        system.deployment.failures.crash_at(
            start + items * 2.0 + 0.5, publisher
        )
    system.sim.run_until(start + items * 2.0 + drain_time)

    expected = {
        str(ItemId("reuters", serial)): num_nodes for serial in range(1, items + 1)
    }
    stats = collect_delivery_stats(system.trace)
    row = E4Row(
        system=label
        or "newswire" + ("+pubcrash" if crash_publisher_after_burst else ""),
        flood_rate=flood_rate,
        served_ratio=1.0,  # consumers never request anything from the publisher
        delivery_ratio=delivery_ratio(system.trace, expected, stats=stats),
        latency_p90=stats.summary.p90 if stats.summary.count else float("inf"),
    )
    return row, system.trace


@register(
    "e4",
    claim=(
        '"guarantees delivery even in the face of publisher overload or '
        'denial of service attacks"'
    ),
    quick={"num_clients": 100, "items": 5, "flood_rates": (0.0, 2000.0)},
)
def run_e4(
    *,
    num_clients: int = 300,
    items: int = 10,
    flood_rates: Sequence[float] = (0.0, 100.0, 1000.0, 5000.0),
    seed: int = 0,
) -> E4Result:
    validate_positive("num_clients", num_clients)
    validate_positive("items", items)
    validate_sizes("flood_rates", flood_rates, entry=validate_non_negative)
    validate_seed(seed)
    rows: list[E4Row] = []
    for flood_rate in flood_rates:
        rows.append(_run_pull_under_flood(num_clients, flood_rate, items, seed)[0])
    for flood_rate in flood_rates:
        rows.append(
            _run_newswire_under_flood(num_clients, flood_rate, items, seed)[0]
        )
    return E4Result(rows)


@dataclass
class E4Timeline:
    """The E4 figure: delivery rate over time through the attack."""

    flood_rate: float
    window: float
    pull_art: str
    newswire_art: str

    def report(self) -> str:
        return (
            f"E4 figure: deliveries over time ({self.window:.0f}s windows), "
            f"flood {self.flood_rate:.0f} req/s from t=30s\n"
            f"  pull     |{self.pull_art}|\n"
            f"  newswire |{self.newswire_art}|"
        )


def run_e4_timeline(
    *,
    num_clients: int = 300,
    items: int = 10,
    flood_rate: float = 2000.0,
    window: float = 10.0,
    seed: int = 0,
) -> E4Timeline:
    """The per-window delivery-rate series behind the E4 table."""
    from repro.metrics.timeline import event_timeline, sparkline

    _, pull_trace = _run_pull_under_flood(num_clients, flood_rate, items, seed)
    _, newswire_trace = _run_newswire_under_flood(
        num_clients, flood_rate, items, seed
    )
    # Common horizon so the two sparklines are time-aligned.
    horizon = max(
        [event.time for event in pull_trace.events("pull-deliver")]
        + [event.time for event in newswire_trace.events("deliver")]
        + [window]
    )
    pull_buckets = event_timeline(
        pull_trace, "pull-deliver", window=window, end=horizon
    )
    newswire_buckets = event_timeline(
        newswire_trace, "deliver", window=window, end=horizon
    )
    return E4Timeline(
        flood_rate=flood_rate,
        window=window,
        pull_art=sparkline(pull_buckets),
        newswire_art=sparkline(newswire_buckets),
    )


def run_e4_physical(
    *,
    num_nodes: int = 200,
    items: int = 8,
    node_bandwidth: float = 125_000.0,   # ~1 Mbit/s per participant
    flood_rate: float = 500.0,
    flood_message_size: int = 8192,
    seed: int = 0,
) -> E4Row:
    """E4 with *physical* link modelling: every node has a finite
    downlink, and the flood genuinely saturates the publisher's
    (flood arrival rate × size ≈ 32× the link).  Delivery still
    completes because dissemination never transits the victim's
    downlink — consumers receive from their zone representatives.
    """
    validate_positive("flood_rate", flood_rate)
    return _run_newswire_under_flood(
        num_nodes, flood_rate, items, seed, crash_publisher_after_burst=False,
        label="newswire(1Mbit links)",
        network={"bandwidth": node_bandwidth, "ingress_bandwidth": node_bandwidth},
        flood_duration=600.0,
        flood_message_size=flood_message_size,
        drain_time=90.0,
    )[0]


if __name__ == "__main__":
    print(run_e4().report())
    print()
    print(run_e4_timeline().report())
    print()
    row = run_e4_physical()
    print(
        f"E4 physical-link check: {row.system} under "
        f"{row.flood_rate:.0f} x 8KB/s flood -> delivery "
        f"{row.delivery_ratio:.2%}, p90 {row.latency_p90:.2f}s"
    )
