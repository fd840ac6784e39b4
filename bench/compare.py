"""Summaries of repeated runs, and the rules for comparing two of them.

A result file (``run.py --out``) holds, per workload, a summary (median,
quartiles, extremes, ``n``) of each end-to-end metric over the
repetitions plus one traced repetition's per-layer values.  :func:`compare` judges file B against file A with the bounds
``BENCHMARK.json`` fixes; ``--selfcheck`` uses the same rules on two
sets of one checkout, where every verdict has to be "same".
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Host-time differences below this never count: sub-second values
#: (a 0.3 s ``setup_s`` is mostly interpreter start-up) are not scored
#: on jitter.
HOST_TIME_FLOOR_S = 0.05


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and ``n`` of one metric's repetitions."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def spread(summary: Dict[str, float]) -> float:
    """Inter-quartile distance as a share of the median.

    Unknown (infinite) below three repetitions: one or two values have
    no quartiles, and a zero-width range would read as a steady metric.
    """
    if summary["n"] < 3:
        return math.inf
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def worsening(metric: dict, base: float, new: float) -> float:
    """By what share of ``base`` did ``new`` get worse (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def verdict(metric: dict, a: Dict[str, float], b: Dict[str, float], exact: bool) -> str:
    """better / same / worse / unresolved for one workload x metric row.

    ``exact`` marks values a simulated run reproduces bit for bit: any
    difference is a real change, so they are never unresolved.
    """
    bound = metric["bound"]
    worse_by = worsening(metric, a["median"], b["median"])
    if exact:
        if worse_by > bound:
            return "worse"
        return "better" if worse_by < -bound else "same"
    small = metric["unit"] == "s" and abs(b["median"] - a["median"]) < HOST_TIME_FLOOR_S
    if small or abs(worse_by) <= bound:
        return "same"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "worse" if worse_by > 0 else "better"


def is_scored(workload: dict, metric: dict) -> bool:
    """A live run lasts as long as its schedule: its length says nothing."""
    return not (workload["live"] and metric["name"] in ("run_s", "wall_s"))


def is_exact(workload: dict, metric: dict) -> bool:
    """Does this metric repeat exactly between runs of this workload?"""
    if workload["live"]:
        return False
    return metric["name"] in ("delivery_ratio", "latency_p50_ms", "latency_p99_ms")


def most_moved_layer(a_layers: Dict[str, float], b_layers: Dict[str, float]) -> Optional[str]:
    """The per-layer metric whose value changed by the largest share.

    Phases are left out (they are sums of layers).  The share is taken
    of at least 10 ms, or of at least one event, so that a layer the
    workload barely enters cannot win on noise.
    """

    def moved(name: str) -> float:
        before, after = a_layers[name], b_layers[name]
        floor = 0.01 if name.endswith("_s") else 1.0
        return abs(after - before) / max(abs(before), floor)

    names = [
        name
        for name in a_layers
        if name in b_layers and not name.startswith(("phase.", "trace."))
    ]
    best = max(names, key=moved, default=None)
    if best is None or not moved(best):
        return None
    return f"{best} {a_layers[best]:.6g} -> {b_layers[best]:.6g}"


def compare(benchmark: dict, a: dict, b: dict) -> List[dict]:
    """One row per workload x end-to-end metric present in both files."""
    rows = []
    for name, a_load in a["workloads"].items():
        b_load = b["workloads"].get(name)
        if b_load is None:
            continue
        for metric in benchmark["end_to_end"]:
            a_sum = a_load["end_to_end"].get(metric["name"])
            b_sum = b_load["end_to_end"].get(metric["name"])
            if a_sum is None or b_sum is None or not is_scored(a_load, metric):
                continue
            exact = is_exact(a_load, metric)
            outcome = verdict(metric, a_sum, b_sum, exact)
            row = {
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "a": a_sum,
                "b": b_sum,
                "verdict": outcome,
                "identical": a_sum["median"] == b_sum["median"],
                "exact": exact,
                "layer": None,
            }
            if outcome == "worse" and a_load.get("per_layer") and b_load.get("per_layer"):
                row["layer"] = most_moved_layer(a_load["per_layer"], b_load["per_layer"])
            rows.append(row)
    return rows


def format_rows(rows: Iterable[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<15} {'A median [q1..q3]':<34} "
        f"{'B median [q1..q3]':<34} {'B/A':<22} verdict"
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        base = f"{ratio:.4f}x of {a['median']:.6g} {row['unit']}"
        mark = "" if not row["exact"] else (" (=)" if row["identical"] else " (!=)")
        lines.append(
            f"{row['workload']:<18} {row['metric']:<15} "
            f"{_cell(a):<34} {_cell(b):<34} {base:<22} {row['verdict']}{mark}"
        )
        if row["layer"]:
            lines.append(f"{'':<18} layer that moved most: {row['layer']}")
    return "\n".join(lines)


def _cell(summary: Dict[str, float]) -> str:
    return (
        f"{summary['median']:.6g} [{summary['q1']:.6g}..{summary['q3']:.6g}] "
        f"n={summary['n']}"
    )


def selfcheck_failures(benchmark: dict, first: dict, second: dict) -> List[str]:
    """Why two sets of one checkout do not agree (empty: they do)."""
    problems = []
    for row in compare(benchmark, first, second):
        where = f"{row['workload']} {row['metric']}"
        if row["exact"] and not row["identical"]:
            problems.append(f"{where}: simulated value differs between sets")
        elif row["verdict"] != "same":
            problems.append(f"{where}: {row['verdict']} between sets")
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    for label, result in (("first", first), ("second", second)):
        for name, load in result["workloads"].items():
            for metric_name, summary in load["end_to_end"].items():
                metric = metrics[metric_name]
                if not is_scored(load, metric):
                    continue
                share = spread(summary)
                tiny = (
                    math.isfinite(share)
                    and metric["unit"] == "s"
                    and summary["q3"] - summary["q1"] < HOST_TIME_FLOOR_S
                )
                if share > metric["bound"] and not tiny:
                    problems.append(
                        f"{name} {metric_name}: unresolved, spread "
                        f"{share:.3f} > bound {metric['bound']} ({label} set)"
                    )
    for name, load in first["workloads"].items():
        other = second["workloads"].get(name)
        if other is None or load["live"]:
            continue
        if load["guard_digest"] != other["guard_digest"]:
            problems.append(f"{name}: guard_digest differs between sets")
        if load["counts"] != other["counts"]:
            moved = sorted(
                key for key in load["counts"] if load["counts"][key] != other["counts"].get(key)
            )
            problems.append(f"{name}: simulated counts differ between sets: {moved}")
    return problems
