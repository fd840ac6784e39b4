"""E9 — forwarding-queue fill strategies (paper §9).

Claim context: "The best strategy to fill queues is still under
research.  We are experimenting with weighted round-robin strategies,
as well as some more aggressive techniques."

Setup: a constrained publisher uplink (low ``max_send_rate``) facing a
burst of mixed-urgency items — the regime where the queue discipline
matters.  Swept: the four strategies.  Measured: overall delivery
latency, latency of *urgent* items (urgency 1–2), mean queueing wait,
and peak backlog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import MulticastConfig, NewsWireConfig, QUEUE_STRATEGIES
from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    story_trace,
    validate_positive,
    validate_seed,
)
from repro.experiments.registry import register
from repro.metrics.stats import Summary
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for


@dataclass(frozen=True)
class E9Row:
    strategy: str
    deliveries: int
    all_p50: float
    all_p99: float
    urgent_p50: float
    urgent_p99: float
    publisher_peak_backlog: int
    publisher_mean_wait: float


@dataclass
class E9Result(TableResult):
    rows: list[E9Row]

    title = (
        "E9: forwarding-queue strategies under a constrained uplink "
        "(the open question of §9)"
    )
    columns = (
        ("strategy", "strategy"),
        ("deliveries", "deliveries"),
        ("p50 (s)", "all_p50"),
        ("p99 (s)", "all_p99"),
        ("urgent p50", "urgent_p50"),
        ("urgent p99", "urgent_p99"),
        ("peak backlog", "publisher_peak_backlog"),
        ("mean queue wait (s)", "publisher_mean_wait"),
    )


@register(
    "e9",
    claim=(
        '"The best strategy to fill queues is still under research" — '
        'forwarding-queue strategy comparison'
    ),
    quick={"num_nodes": 80, "items": 20},
)
def run_e9(
    *,
    num_nodes: int = 200,
    items: int = 40,
    strategies: Sequence[str] = QUEUE_STRATEGIES,
    send_rate: float = 12.0,
    seed: int = 0,
) -> E9Result:
    validate_positive("num_nodes", num_nodes)
    validate_positive("items", items)
    validate_positive("send_rate", send_rate)
    validate_seed(seed)
    if not strategies:
        raise ConfigurationError("strategies must not be empty")
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E9Row] = []
    for strategy in strategies:
        config = NewsWireConfig(
            branching_factor=8,
            multicast=MulticastConfig(
                queue_strategy=strategy,
                max_send_rate=send_rate,
                send_to_representatives=1,
            ),
        )
        system, _ = build_system(
            SystemSpec(
                num_nodes=num_nodes,
                subjects=subjects,
                seed=seed,
                publisher_rate=1000.0,
                config=config,
                settle_rounds=2,
            )
        )
        publisher = system.publisher("newswire")
        start = system.sim.now
        # A burst: everything lands at nearly the same instant; one in
        # five items is urgent (breaking news).
        trace = story_trace(
            start, items, subjects, spacing=0.01,
            urgency=lambda index: 1 if index % 5 == 0 else 6,
        )
        drive_trace(system, "newswire", trace)
        system.sim.run_until(start + 120.0)

        urgent_items = {
            str(ItemId("newswire", serial))
            for serial, publication in enumerate(trace, start=1)
            if publication.urgency == 1
        }
        deliveries = [
            event for event in system.trace.events("deliver")
            if event.get("latency") is not None
        ]
        everything = Summary.of(event["latency"] for event in deliveries)
        urgent = Summary.of(
            event["latency"] for event in deliveries
            if event.get("item") in urgent_items
        )
        rows.append(
            E9Row(
                strategy=strategy,
                deliveries=everything.count,
                all_p50=everything.p50,
                all_p99=everything.p99,
                urgent_p50=urgent.p50,
                urgent_p99=urgent.p99,
                publisher_peak_backlog=publisher.queues.stats.max_backlog,
                publisher_mean_wait=publisher.queues.stats.mean_wait,
            )
        )
    return E9Result(rows)


if __name__ == "__main__":
    print(run_e9().report())
