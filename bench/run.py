"""The benchmark driver: ``python3 bench/run.py``.

Runs the workloads named in ``BENCHMARK.json``, each repetition in a
fresh child interpreter (``rep.py``) and one at a time, checks every
run against the oracle, and prints every metric by name with its unit.
The last line of standard output is one JSON object with the medians
(``--trace 0``: end-to-end metrics; ``--trace 1``: per-layer metrics
from a traced repetition; neither: both).

Switches: ``--workload NAME`` (default: all), ``--seed N``,
``--seconds S`` (untraced measuring time per workload: repetitions are
started while one more fits, and never fewer than three),
``--trace {0,1}``, ``--smoke`` (tiny sizes for the self-tests),
``--out FILE`` (write the results as JSON), ``--base-port P`` (live
workload), ``--compare A.json B.json`` and ``--selfcheck``.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402  (a sibling of this script, not a package)

#: A child that has not finished by then is killed: the contract gives
#: a whole run 180 s.
REP_TIMEOUT_S = 170.0
#: Every metric is a median of at least this many repetitions, however
#: short ``--seconds`` is: quartiles of fewer say nothing about spread.
MIN_REPS = 3


class BenchError(Exception):
    """A repetition crashed or produced no result."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_rep(
    workload: str,
    seed: int,
    args: argparse.Namespace,
    *,
    traced: bool = False,
) -> dict:
    """One repetition in a fresh interpreter; returns its result object."""
    spec = {
        "workload": workload,
        "seed": seed,
        "smoke": args.smoke,
        "traced": traced,
        "base_port": args.base_port,
        "spawned_at": time.time(),
    }
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
            cwd=str(ROOT),
            # Fixed string hashing: one less source of run-to-run noise.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition exceeded {REP_TIMEOUT_S:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(
            f"{workload}: repetition exited {done.returncode} without a result"
        )
    return json.loads(lines[-1])


def simulated(rep: dict) -> dict:
    """What two simulated repetitions of one seed must agree on exactly."""
    exact = {key: rep[key] for key in ("guard_digest", "deliveries", "counts")}
    for key in ("delivery_ratio", "latency_p50_ms", "latency_p99_ms"):
        exact[key] = rep["end_to_end"][key]
    return exact


def measure(workload: str, benchmark: dict, args: argparse.Namespace) -> dict:
    """All repetitions of one workload, folded into one result."""
    want_untraced = args.trace != 1
    want_traced = args.trace != 0
    reps: List[dict] = []
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        reps.append(run_rep(workload, args.seed, args))
        now = time.monotonic()
        if not want_untraced:
            break  # a traced run needs one plain repetition, for the overhead
        if len(reps) >= MIN_REPS and (now - started) + (now - rep_started) > args.seconds:
            break
    traced = run_rep(workload, args.seed, args, traced=True) if want_traced else None

    live = reps[0]["live"]
    problems = []
    every = reps + ([traced] if traced else [])
    for rep in every:
        if not rep["correct"]:
            problems.append(
                f"oracle: {rep['failed']} of {rep['attempted']} failed; "
                f"first offenders (why, node, item): {rep['offenders']}"
            )
    if not live:
        # One seed, one simulator: everything simulated repeats exactly,
        # with or without the tracer.
        for rep in every[1:]:
            for key, value in simulated(rep).items():
                if value != simulated(every[0])[key]:
                    problems.append(f"{key} differs between repetitions of one seed")

    end_to_end = {
        metric["name"]: compare.summarize(
            [rep["end_to_end"][metric["name"]] for rep in reps]
        )
        for metric in benchmark["end_to_end"]
    }
    per_layer = None
    if traced:
        per_layer = dict(traced["per_layer"])
        per_layer["trace.overhead_ratio"] = (
            traced["end_to_end"]["wall_s"] / end_to_end["wall_s"]["median"]
        )
    first = reps[0]
    return {
        "workload": workload,
        "live": live,
        "seed": args.seed,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(rep["attempted"] for rep in every),
        "failed": sum(rep["failed"] for rep in every),
        "guard_digest": first["guard_digest"],
        "inputs_digest": first["inputs_digest"],
        "deliveries": first["deliveries"],
        "counts": first["counts"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_file": traced["trace_file"] if traced else None,
    }


def print_result(result: dict, benchmark: dict, args: argparse.Namespace) -> None:
    """Human-readable tables, then the one-line JSON object."""
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}{', smoke' if args.smoke else ''}) ==")
    print(
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} deliveries={result['deliveries']}"
    )
    print(f"guard_digest={result['guard_digest']}")
    print(f"inputs_digest={result['inputs_digest']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    metrics: Dict[str, dict] = {}
    if args.trace != 1:
        print(f"{'end-to-end metric':<34} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'n':>3}")
        for metric in benchmark["end_to_end"]:
            s = result["end_to_end"][metric["name"]]
            print(f"{metric['name']:<34} {metric['unit']:<6} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['min']:>12.6g} "
                  f"{s['max']:>12.6g} {s['n']:>3}")
            metrics[metric["name"]] = {"value": s["median"], "unit": metric["unit"]}
    if result["per_layer"] is not None:
        print(f"{'per-layer metric (traced run)':<40} {'unit':<6} {'value':>14}")
        for metric in benchmark["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"{metric['name']:<40} {metric['unit']:<6} {value:>14.6g}")
            if args.trace != 0:
                metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"trace file: {result['trace_file']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def run_set(names: List[str], benchmark: dict, args: argparse.Namespace, quiet=False) -> dict:
    """Measure ``names`` in order; returns a result file's content."""
    results = {}
    for name in names:
        result = measure(name, benchmark, args)
        if not quiet:
            print_result(result, benchmark, args)
        results[name] = result
    return {
        "meta": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "workloads": results,
    }


def selfcheck(names: List[str], benchmark: dict, args: argparse.Namespace) -> int:
    """Two sets of this checkout, back to back, in opposite orders."""
    first = run_set(names, benchmark, args, quiet=True)
    second = run_set(list(reversed(names)), benchmark, args, quiet=True)
    print(compare.format_rows(compare.compare(benchmark, first, second)))
    problems = compare.selfcheck_failures(benchmark, first, second)
    for set_ in (first, second):
        for result in set_["workloads"].values():
            problems += [f"{result['workload']}: {p}" for p in result["problems"]]
    for problem in problems:
        print(f"SELFCHECK: {problem}")
    print("selfcheck: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--base-port", type=int, help="live workload (default 45200)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        rows = compare.compare(benchmark, a, b)
        print(compare.format_rows(rows))
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing; nothing to measure",
              file=sys.stderr)
        return 2
    chosen = [args.workload] if args.workload else names
    try:
        if args.selfcheck:
            args.trace = 0
            return selfcheck(chosen, benchmark, args)
        results = run_set(chosen, benchmark, args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
