"""E7 — redundant representatives & repair (paper §9, §5).

Claim: "we use multiple representatives to forward a new item, to
increase the robustness of the delivery" (duplicates removed via item
ids), and the §5 note that the protocol "should have many of the
properties of Bimodal Multicast" (epidemic repair).

Setup: a lossy network plus random crashes *during* dissemination.
Swept: representatives used per forward (k = 1, 2, 3) × repair on/off.
Measured: delivery ratio, duplicate suppression overhead
(dup-dropped per delivery), and repair contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import MulticastConfig, NewsWireConfig
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    build_system,
    drive_trace,
    expected_delivery_nodes,
    story_trace,
    validate_fraction,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.registry import SweepCell, register
from repro.metrics.collectors import delivery_ratio
from repro.workloads.scenarios import TECH_CATEGORIES, subjects_for


@dataclass(frozen=True)
class E7Row:
    representatives: int
    repair: bool
    loss_rate: float
    crash_fraction: float
    delivery_ratio: float
    duplicates_per_delivery: float
    repair_deliveries: int


@dataclass
class E7Result(TableResult):
    rows: list[E7Row]

    title = (
        "E7: redundant representatives + bimodal repair vs loss/crashes "
        "(paper §9: redundancy increases robustness; dups removed by id)"
    )
    columns = (
        ("reps", "representatives"),
        ("repair", lambda row: "on" if row.repair else "off"),
        ("loss", "loss_rate"),
        ("crashes", "crash_fraction"),
        ("delivery ratio", "delivery_ratio"),
        ("dups/delivery", "duplicates_per_delivery"),
        ("repaired", "repair_deliveries"),
    )


def run_e7_cell(
    *,
    num_nodes: int = 300,
    items: int = 10,
    reps: int = 1,
    repair: bool = False,
    loss_rate: float = 0.05,
    crash_fraction: float = 0.10,
    seed: int = 0,
) -> E7Row:
    """One (representatives, repair) combination of the E7 sweep.

    Builds its own system from the shared seed, so combinations are
    independent — the unit the parallel executor fans out."""
    subjects = subjects_for(("newswire",), TECH_CATEGORIES)
    config = NewsWireConfig(
        multicast=MulticastConfig(
            representatives=max(3, reps),
            send_to_representatives=reps,
            repair_enabled=repair,
            repair_interval=3.0,
        )
    )
    system, interests = build_system(
        SystemSpec(
            num_nodes=num_nodes,
            subjects=subjects,
            seed=seed,
            config=config,
            settle_rounds=2,
            network={"loss_rate": loss_rate},
        )
    )
    start = system.sim.now
    trace = story_trace(start, items, subjects)
    drive_trace(system, "newswire", trace)
    if crash_fraction > 0:
        # Crash forwarders mid-dissemination; they stay down.
        system.deployment.failures.crash_fraction(
            start + 0.05, system.nodes[1:], crash_fraction
        )
    system.sim.run_until(start + items * 1.0 + 60.0)

    # Crashed nodes cannot deliver; expectation covers survivors.
    crashed = {str(n.node_id) for n in system.nodes if n.crashed}
    expected = {
        item: len(nodes - crashed)
        for item, nodes in expected_delivery_nodes(
            interests, system, trace, "newswire"
        ).items()
    }
    deliveries = system.trace.count("deliver")
    dups = system.trace.count("dup-dropped")
    return E7Row(
        representatives=reps,
        repair=repair,
        loss_rate=loss_rate,
        crash_fraction=crash_fraction,
        delivery_ratio=delivery_ratio(system.trace, expected),
        duplicates_per_delivery=dups / deliveries if deliveries else 0.0,
        repair_deliveries=system.trace.count("repair-delivered"),
    )


def _e7_cells(kwargs: dict) -> list[SweepCell]:
    """One cell per (representatives, repair) combination.  The sweep
    is validated here, where every path to the cells passes."""
    validate_positive("num_nodes", kwargs["num_nodes"])
    validate_positive("items", kwargs["items"])
    validate_sizes("rep_counts", kwargs["rep_counts"])
    validate_fraction("loss_rate", kwargs["loss_rate"])
    validate_fraction("crash_fraction", kwargs["crash_fraction"])
    validate_seed(kwargs["seed"])
    cells = []
    for reps in kwargs["rep_counts"]:
        for repair in kwargs["repair_options"]:
            cells.append(
                SweepCell(
                    index=len(cells),
                    label=f"reps={reps},repair={'on' if repair else 'off'}",
                    runner=run_e7_cell,
                    kwargs={
                        "num_nodes": kwargs["num_nodes"],
                        "items": kwargs["items"],
                        "reps": reps,
                        "repair": bool(repair),
                        "loss_rate": kwargs["loss_rate"],
                        "crash_fraction": kwargs["crash_fraction"],
                        "seed": kwargs["seed"],
                    },
                )
            )
    return cells


def _e7_merge(kwargs: dict, results: list) -> "E7Result":
    return E7Result(list(results))


@register(
    "e7",
    claim=(
        '"we use multiple representatives to forward a new item, to '
        'increase the robustness of the delivery" + epidemic repair'
    ),
    quick={"num_nodes": 120, "items": 5},
    cells=_e7_cells,
    merge=_e7_merge,
)
def run_e7(
    *,
    num_nodes: int = 300,
    items: int = 10,
    rep_counts: Sequence[int] = (1, 2, 3),
    repair_options: Sequence[bool] = (False, True),
    loss_rate: float = 0.05,
    crash_fraction: float = 0.10,
    seed: int = 0,
) -> E7Result:
    kwargs = dict(locals())  # exactly the sweep parameters _e7_cells reads
    return _e7_merge(
        kwargs, [cell.runner(**cell.kwargs) for cell in _e7_cells(kwargs)]
    )


if __name__ == "__main__":
    print(run_e7().report())
