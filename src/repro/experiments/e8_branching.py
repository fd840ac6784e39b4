"""E8 — zone branching factor ablation (paper §3).

Claim context: "Each of these tables is limited to some small size
(say, 64 rows); thus the hierarchy may be several levels deep."  The
paper never justifies 64; this ablation shows the trade-off it sits
on: small zones → deep trees → more forwarding hops and higher
latency; large zones → shallow trees but bigger tables → more gossip
bytes per round and larger per-zone state.

Fixed N; branching factor swept.  Measured: hierarchy depth, per-node
gossip traffic, multicast delivery latency, and forwarding hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import NewsWireConfig
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    story_trace,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.metrics.collectors import delivery_latencies
from repro.metrics.stats import Summary
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for


@dataclass(frozen=True)
class E8Row:
    branching: int
    depth: int
    gossip_bytes_per_node_per_s: float
    deliver_p50: float
    deliver_p99: float
    forwards_per_item: float


@dataclass
class E8Result(TableResult):
    rows: list[E8Row]

    title = (
        "E8: branching-factor trade-off at fixed N "
        "(paper picks 64-row zone tables)"
    )
    columns = (
        ("branching", "branching"),
        ("depth", "depth"),
        ("gossip B/node/s", "gossip_bytes_per_node_per_s"),
        ("deliver p50 (s)", "deliver_p50"),
        ("deliver p99 (s)", "deliver_p99"),
        ("forwards/item", "forwards_per_item"),
    )


@register(
    "e8",
    claim=(
        '"Each of these tables is limited to some small size (say, 64 '
        'rows)" — branching-factor ablation'
    ),
    quick={"num_nodes": 128, "branchings": (4, 64), "items": 3,
           "measure_time": 30.0},
)
def run_e8(
    *,
    num_nodes: int = 512,
    branchings: Sequence[int] = (4, 8, 16, 64),
    items: int = 5,
    measure_time: float = 60.0,
    seed: int = 0,
) -> E8Result:
    validate_positive("num_nodes", num_nodes)
    validate_sizes("branchings", branchings)
    validate_positive("items", items)
    validate_positive("measure_time", measure_time)
    validate_seed(seed)
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E8Row] = []
    for branching in branchings:
        system, _ = build_system(
            SystemSpec(
                num_nodes=num_nodes,
                subjects=subjects,
                seed=seed,
                config=NewsWireConfig(branching_factor=branching),
                settle_rounds=2,
            )
        )
        system.network.reset_node_stats()
        start = system.sim.now
        drive_trace(system, "newswire", story_trace(start, items, subjects))
        system.sim.run_until(start + measure_time)

        total_bytes = sum(
            system.network.node_stats(node.node_id).sent_bytes
            for node in system.nodes
        )
        latencies = Summary.of(delivery_latencies(system.trace))
        rows.append(
            E8Row(
                branching=branching,
                depth=max(node.node_id.depth for node in system.nodes),
                gossip_bytes_per_node_per_s=total_bytes / num_nodes / measure_time,
                deliver_p50=latencies.p50,
                deliver_p99=latencies.p99,
                forwards_per_item=system.trace.count("forward") / items,
            )
        )
    return E8Result(rows)


if __name__ == "__main__":
    print(run_e8().report())
