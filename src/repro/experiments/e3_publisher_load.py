"""E3 — load at the publisher (abstract, §2).

Claim: "The system significantly reduces the compute and network load
at the publishers"; §2: direct one-to-many push "clearly has
scalability limitations".

Setup: the same ten-item workload delivered to N interested
subscribers three ways —

* **direct push** (§2 straw-man): the publisher unicasts to every
  subscriber;
* **pull** (§1): subscribers poll the origin on a fixed interval;
* **CDN** (§1's hybrid): the origin pushes to fixed edge servers,
  consumers pull from their nearest edge;
* **NewsWire**: the publisher hands each item to a handful of zone
  representatives.

Measured: messages and bytes *sent by the publisher/origin* per
published item, plus the p99 delivery latency.  The paper predicts
NewsWire's publisher cost to be ~constant in N while push and pull
grow linearly; the CDN also flattens publisher cost (that is what
CDNs are for) but keeps consumers poll-bound and "requires ...
dedicated server infrastructure" — the §2 criticism NewsWire answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.identifiers import ZonePath
from repro.sim.engine import Simulation
from repro.sim.network import HierarchicalLatency, Network
from repro.sim.trace import TraceLog
from repro.baselines.direct_push import PushOrigin, PushSubscriber
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    publish_at_origin,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.metrics.stats import Summary
from repro.workloads.populations import InterestModel
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for
from repro.workloads.traces import Publication, poisson_trace


@dataclass(frozen=True)
class E3Row:
    system: str
    num_subscribers: int
    items: int
    publisher_msgs_per_item: float
    publisher_bytes_per_item: float
    latency_p99: float


@dataclass
class E3Result(TableResult):
    rows: list[E3Row]

    title = (
        "E3: publisher load — push/pull grow linearly in N; CDN is "
        "flat but poll-bound; NewsWire is flat AND fresh (abstract)"
    )
    columns = (
        ("system", "system"),
        ("subscribers", "num_subscribers"),
        ("items", "items"),
        ("pub msgs/item", "publisher_msgs_per_item"),
        ("pub bytes/item", "publisher_bytes_per_item"),
        ("p99 latency (s)", "latency_p99"),
    )


def _make_trace(items: int, subjects: Sequence[str], seed: int) -> list[Publication]:
    """Exactly ``items`` Poisson arrivals.  One segment of the expected
    length can come up short, or empty, so further segments are drawn
    from the same rng, each starting where the last one ended."""
    rng = random.Random(seed)
    trace: list[Publication] = []
    start = 0.0
    while len(trace) < items:
        trace += poisson_trace(
            rate_per_hour=360.0, duration=items * 12.0, subjects=list(subjects),
            rng=rng, start=start,
        )
        start += items * 12.0
    return trace[:items]


def _baseline(seed: int, kind: str) -> tuple[Simulation, Network, TraceLog]:
    """The substrate under each baseline system: a fresh simulator, the
    hierarchical-latency network and a trace of its delivery ``kind``."""
    sim = Simulation(seed=seed)
    return sim, Network(sim, latency=HierarchicalLatency()), TraceLog(sim, kinds={kind})


def _row(
    system: str,
    trace: Sequence[Publication],
    network: Network,
    origin,
    num_subscribers: int,
    trace_log: TraceLog,
    kind: str,
) -> E3Row:
    """Everything ``origin`` sent, per published item, beside the p99
    of the ``kind`` deliveries."""
    stats = network.node_stats(origin.node_id)
    return E3Row(
        system=system,
        num_subscribers=num_subscribers,
        items=len(trace),
        publisher_msgs_per_item=stats.sent_messages / len(trace),
        publisher_bytes_per_item=stats.sent_bytes / len(trace),
        latency_p99=Summary.of(e["latency"] for e in trace_log.events(kind)).p99,
    )


def _run_direct_push(
    num_subscribers: int, trace: Sequence[Publication], interests: InterestModel, seed: int
) -> E3Row:
    sim, network, trace_log = _baseline(seed, "push-deliver")
    origin = PushOrigin(
        ZonePath.parse("/origin/push"), sim, network, send_rate=1000.0, trace=trace_log
    )
    for index in range(num_subscribers):
        subscriber = PushSubscriber(
            ZonePath.parse(f"/subs/s{index}"), sim, network, trace=trace_log
        )
        origin.subscribe(
            subscriber.node_id,
            {s.subject for s in interests.subscriptions_for(index)},
        )
    publish_at_origin(sim, origin, trace, "push")
    sim.run()
    return _row(
        "direct-push", trace, network, origin, num_subscribers,
        trace_log, "push-deliver",
    )


def _run_pull(
    num_subscribers: int,
    trace: Sequence[Publication],
    interests: InterestModel,
    seed: int,
    poll_interval: float = 60.0,
) -> E3Row:
    sim, network, trace_log = _baseline(seed, "pull-deliver")
    origin = OriginServer(
        ZonePath.parse("/origin/www"), sim, network, capacity=100_000.0,
        trace=trace_log,
    )
    for index in range(num_subscribers):
        client = PullClient(
            ZonePath.parse(f"/subs/s{index}"),
            sim,
            network,
            origin.node_id,
            poll_interval=poll_interval,
            mode="full",
            trace=trace_log,
        )
        client.start()
    publish_at_origin(sim, origin, trace, "www")
    sim.run_until(max(p.time for p in trace) + 2 * poll_interval)
    return _row(
        f"pull@{poll_interval:.0f}s", trace, network, origin, num_subscribers,
        trace_log, "pull-deliver",
    )


def _run_cdn(
    num_subscribers: int,
    trace: Sequence[Publication],
    interests: InterestModel,
    seed: int,
    num_edges: int = 8,
    poll_interval: float = 60.0,
) -> E3Row:
    """§1's hybrid: origin pushes to edges, consumers pull from edges.

    Publisher load is O(edges); consumer freshness stays poll-bound.
    """
    from repro.baselines.cdn import build_cdn, nearest_edge

    sim, network, trace_log = _baseline(seed, "pull-deliver")
    origin, edges = build_cdn(
        sim, network, num_edges, capacity_per_edge=100_000.0, trace=trace_log
    )
    for index in range(num_subscribers):
        home = ZonePath.parse(f"/region{index % num_edges}/homes/c{index}")
        PullClient(
            home,
            sim,
            network,
            nearest_edge(home, edges).node_id,
            poll_interval=poll_interval,
            mode="delta",
            trace=trace_log,
        ).start()
    publish_at_origin(sim, origin, trace, "cdn")
    sim.run_until(max(p.time for p in trace) + 2 * poll_interval)
    return _row(
        f"cdn@{num_edges}edges", trace, network, origin, num_subscribers,
        trace_log, "pull-deliver",
    )


def _run_newswire(
    num_subscribers: int, trace: Sequence[Publication], interests: InterestModel, seed: int
) -> E3Row:
    system, _ = build_system(
        SystemSpec(
            num_nodes=num_subscribers,
            subscriptions_for=interests.subscriptions_for,
            publisher_rate=100.0,
            seed=seed,
            settle_rounds=2,
        )
    )
    system.network.reset_node_stats()
    base = system.sim.now
    drive_trace(
        system, "newswire", [replace(p, time=base + p.time) for p in trace]
    )
    system.sim.run_until(base + max(p.time for p in trace) + 30.0)
    # The publisher also gossips; count only its item traffic would be
    # unfair in NewsWire's favour, so report everything it sent.
    return _row(
        "newswire", trace, system.network, system.publisher("newswire"),
        num_subscribers, system.trace, "deliver",
    )


@register(
    "e3",
    claim=(
        '"The system significantly reduces the compute and network load '
        'at the publishers" vs direct one-to-many push'
    ),
    quick={"sizes": (100, 400), "items": 5},
)
def run_e3(
    *,
    sizes: Sequence[int] = (100, 500, 2000),
    items: int = 10,
    seed: int = 0,
) -> E3Result:
    validate_sizes("sizes", sizes)
    validate_positive("items", items)
    validate_seed(seed)
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E3Row] = []
    for num_subscribers in sizes:
        interests = InterestModel(
            subjects=subjects, subscriptions_per_node=3, seed=seed
        )
        trace = _make_trace(items, subjects, seed)
        rows.append(_run_direct_push(num_subscribers, trace, interests, seed))
        rows.append(_run_pull(num_subscribers, trace, interests, seed))
        rows.append(_run_cdn(num_subscribers, trace, interests, seed))
        rows.append(_run_newswire(num_subscribers, trace, interests, seed))
    return E3Result(rows)


if __name__ == "__main__":
    print(run_e3().report())
