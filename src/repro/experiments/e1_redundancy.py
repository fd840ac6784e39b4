"""E1 — redundancy of the pull model (paper §1).

Claim: "a consumer who returns 4 times during a day receives about 70%
redundant data.  Consumers who return more frequently ... receive a
much higher rate of redundant data."

Setup: a Slashdot-like origin posts ~25 items/day (diurnal trace) on a
20-item front page; pull clients poll at 1–48 visits/day.  We measure
the fraction of received payload bytes that the client already had,
per poll frequency and per §1 access model (full page,
if-modified-since, delta encoding, RSS summaries + article fetch).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.identifiers import ZonePath
from repro.sim.engine import Simulation
from repro.sim.network import FixedLatency, Network
from repro.baselines.origin import OriginServer
from repro.baselines.pull import PullClient
from repro.experiments.common import (
    TableResult,
    publish_at_origin,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import register
from repro.workloads.traces import DAY, diurnal_trace


@dataclass(frozen=True)
class E1Row:
    mode: str
    visits_per_day: float
    polls: int
    new_items: int
    redundant_items: int
    bytes_received: int
    redundancy_ratio: float


@dataclass
class E1Result(TableResult):
    rows: list[E1Row]
    items_published: int

    columns = (
        ("mode", "mode"),
        ("visits/day", "visits_per_day"),
        ("polls", "polls"),
        ("new", "new_items"),
        ("redundant", "redundant_items"),
        ("bytes", "bytes_received"),
        ("redundancy", "redundancy_ratio"),
    )

    @property
    def title(self) -> str:
        return (
            f"E1: pull-model redundancy ({self.items_published} items "
            "published; paper claims ~0.70 at 4 visits/day, full-page pull)"
        )

    def redundancy_at(self, mode: str, visits_per_day: float) -> float:
        for row in self.rows:
            if row.mode == mode and row.visits_per_day == visits_per_day:
                return row.redundancy_ratio
        raise KeyError((mode, visits_per_day))


@register(
    "e1",
    claim=(
        '"a consumer who returns 4 times during a day receives about 70% '
        'redundant data" — waste of the pull model'
    ),
    quick={"days": 1.0},
)
def run_e1(
    *,
    items_per_day: float = 25.0,
    days: float = 2.0,
    page_items: int = 20,
    visits_per_day: Sequence[float] = (1, 2, 4, 8, 24, 48),
    modes: Sequence[str] = ("full", "cond", "delta", "rss"),
    seed: int = 0,
) -> E1Result:
    validate_positive("items_per_day", items_per_day)
    validate_positive("days", days)
    validate_positive("page_items", page_items)
    validate_sizes("visits_per_day", visits_per_day)
    validate_seed(seed)
    sim = Simulation(seed=seed)
    network = Network(sim, latency=FixedLatency(0.05))
    origin = OriginServer(
        ZonePath.parse("/origin/www"),
        sim,
        network,
        capacity=10_000.0,  # uncontended here; E4 studies overload
        page_items=page_items,
    )
    trace = diurnal_trace(
        items_per_day=items_per_day,
        days=days,
        subjects=["slashdot/tech"],
        rng=random.Random(seed),
    )
    publish_at_origin(sim, origin, trace, "slashdot")

    clients: list[tuple[str, float, PullClient]] = []
    index = 0
    for mode in modes:
        for visits in visits_per_day:
            client = PullClient(
                ZonePath.parse(f"/clients/c{index}"),
                sim,
                network,
                origin.node_id,
                poll_interval=DAY / visits,
                mode=mode,
            )
            client.start()
            clients.append((mode, visits, client))
            index += 1

    sim.run_until(days * DAY)

    rows = [
        E1Row(
            mode=mode,
            visits_per_day=visits,
            polls=client.stats.polls,
            new_items=client.stats.new_items,
            redundant_items=client.stats.redundant_items,
            bytes_received=client.stats.bytes_received,
            redundancy_ratio=client.stats.redundancy_ratio,
        )
        for mode, visits, client in clients
    ]
    return E1Result(rows=rows, items_published=len(trace))


if __name__ == "__main__":
    print(run_e1().report())
