"""E2 — delivery latency vs system size (abstract, §9).

Claim: "deliver news updates to hundreds of thousands of subscribers
within tens of seconds of the moment of publishing"; §9: "in the order
of tens of seconds, even if tens or hundreds of thousands of
subscribers are active".

Setup: NewsWire populations of increasing size, Zipf interests over
tech subjects, hierarchical (zone-distance) latency.  After the
population converges, a publisher injects items; we record the full
publish→deliver latency distribution and the delivery ratio.

What to expect: dissemination is a recursion over a tree of depth
O(log_b N) with per-hop forwarding-queue and WAN delays, so latency
grows logarithmically — comfortably inside "tens of seconds" at any
simulated size — while the *subscription* state that routes it takes
tens of seconds to converge (that path is measured separately in E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    expected_deliveries,
    expected_delivery_nodes,
    story_trace,
    validate_non_negative,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import SweepCell, register
from repro.metrics.collectors import collect_delivery_stats, delivery_ratio
from repro.metrics.stats import Summary
from repro.obs.sinks import MemorySink, StreamingSink
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for

#: At or above this population, ``sink="auto"`` switches the per-size
#: primary sink from a retained-event MemorySink to a bounded-memory
#: StreamingSink (exact counts, bucket-approximate percentiles).
#: Documented default — docs/SCALE.md and ``--sink`` in the CLI.
STREAMING_NODE_THRESHOLD = 10_000


@dataclass(frozen=True)
class E2Row:
    num_nodes: int
    items: int
    expected: int
    delivered: int
    ratio: float
    latency: Summary


@dataclass
class E2Result(TableResult):
    rows: list[E2Row]

    title = (
        "E2: delivery latency vs population size "
        "(paper claims tens of seconds at 10^5 subscribers)"
    )
    columns = (
        ("nodes", "num_nodes"),
        ("items", "items"),
        ("expected", "expected"),
        ("delivered", "delivered"),
        ("ratio", "ratio"),
        ("lat p50 (s)", lambda row: row.latency.p50),
        ("lat p90 (s)", lambda row: row.latency.p90),
        ("lat p99 (s)", lambda row: row.latency.p99),
        ("lat max (s)", lambda row: row.latency.maximum),
    )


def _e2_cells(kwargs: dict) -> list[SweepCell]:
    """One cell per population size.

    Each sweep iteration in :func:`run_e2` builds a fresh system from
    ``seed + num_nodes`` with a fixed interest seed, so the sizes are
    fully independent: running each as its own single-size ``run_e2``
    call reproduces the serial rows byte-for-byte.
    """
    validate_sizes("sizes", kwargs["sizes"])  # an empty sweep plans no cell to refuse it
    cells = []
    for index, num_nodes in enumerate(kwargs["sizes"]):
        cell_kwargs = dict(kwargs)
        cell_kwargs["sizes"] = (num_nodes,)
        cells.append(
            SweepCell(
                index=index,
                label=f"nodes={num_nodes}",
                runner=run_e2,
                kwargs=cell_kwargs,
            )
        )
    return cells


def _e2_merge(kwargs: dict, results: list) -> "E2Result":
    return E2Result([row for result in results for row in result.rows])


@register(
    "e2",
    claim=(
        '"deliver news updates to hundreds of thousands of subscribers '
        'within tens of seconds of the moment of publishing" — latency '
        "vs population size"
    ),
    quick={"sizes": (100, 400), "items": 3},
    cells=_e2_cells,
    merge=_e2_merge,
)
def run_e2(
    *,
    sizes: Sequence[int] = (100, 500, 2000),
    items: int = 5,
    item_spacing: float = 1.0,
    subscriptions_per_node: int = 3,
    settle_rounds: float = 3.0,
    drain_time: float = 30.0,
    seed: int = 0,
    config: Optional[NewsWireConfig] = None,
    backend: str = "object",
    sink: str = "auto",
) -> E2Result:
    """``backend`` selects the state representation ("object" or the
    mega-scale "columnar", docs/SCALE.md).  ``sink`` picks the per-size
    *primary* sink: "memory" retains events, "streaming" folds them
    into bounded aggregates, and the default "auto" uses memory below
    ``STREAMING_NODE_THRESHOLD`` nodes and streaming at or above it.
    Defaults reproduce the historical (golden-pinned) rows exactly.
    """
    validate_sizes("sizes", sizes)
    validate_positive("items", items)
    validate_positive("item_spacing", item_spacing)
    validate_positive("subscriptions_per_node", subscriptions_per_node)
    validate_non_negative("settle_rounds", settle_rounds)
    validate_non_negative("drain_time", drain_time)
    validate_seed(seed)
    if sink not in ("auto", "memory", "streaming"):
        raise ConfigurationError(
            f"sink must be 'auto', 'memory' or 'streaming', got {sink!r}"
        )
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    rows: list[E2Row] = []
    for num_nodes in sizes:
        # Each size gets its own fresh *primary* sink: the row stats
        # must cover only this size's events.  Observers attached by
        # ``instrumented`` ride behind it and are never the stats
        # source — a shared MemorySink there would bleed the previous
        # size's deliveries into this size's latency summary.
        use_streaming = sink == "streaming" or (
            sink == "auto" and num_nodes >= STREAMING_NODE_THRESHOLD
        )
        # The per-size deployment seed varies while the interest seed
        # stays fixed — the historical (golden-fingerprinted) pattern.
        system, interests = build_system(
            SystemSpec(
                num_nodes=num_nodes,
                subjects=subjects,
                subscriptions_per_node=subscriptions_per_node,
                seed=seed + num_nodes,
                interest_seed=seed,
                config=config,
                sinks=[StreamingSink() if use_streaming else MemorySink()],
                backend=backend,
                settle_rounds=settle_rounds,
            )
        )
        start = system.sim.now
        trace = story_trace(
            start, items, subjects, spacing=item_spacing, body_words=200
        )
        drive_trace(system, "newswire", trace)
        system.sim.run_until(start + items * item_spacing + drain_time)

        expected = expected_deliveries(interests, num_nodes, trace, "newswire")
        # One shared trace pass: latencies, per-item counts and the
        # delivery ratio all come out of the same scan.
        stats = collect_delivery_stats(system.trace)
        rows.append(
            E2Row(
                num_nodes=num_nodes,
                items=items,
                expected=sum(expected.values()),
                delivered=system.trace.count("deliver"),
                ratio=delivery_ratio(system.trace, expected, stats=stats),
                latency=stats.summary,
            )
        )
        # The interest model's expectations, for the observers that take
        # them: a columnar build records no per-node ``subscribe``
        # events a causal sink could derive them from.
        if system.trace.wants_expectations:
            for item, nodes in expected_delivery_nodes(
                interests, system, trace, "newswire"
            ).items():
                system.trace.expect(item, nodes)
    return E2Result(rows)


if __name__ == "__main__":
    print(run_e2().report())
