"""Sweep-throughput harness — one worker vs N workers, wall time.

Times the quick E2/E5/E7 sweeps twice through the same
:func:`repro.parallel.run_spec` path — once in-process with one worker
("serial") and once across N worker processes — verifies the two
produce identical result payloads, and reports
per-experiment wall times, the overall speedup, and the machine's CPU
count.

Usage::

    python -m repro.parallel.bench_sweep                    # print table
    python -m repro.parallel.bench_sweep -o sweep.json      # + JSON report
    make bench-sweep                                        # print table

Honesty note: the speedup is bounded by physical cores.  On a
single-core container the parallel column mostly measures spawn and
queue overhead (speedup < 1 is expected and correctly reported); the
number that demonstrates the executor is the one from a multi-core
runner, which is why no JSON is tracked: the CI parallel-sweep job
records one on the hosted runners and uploads it as an artifact.  The
payload-equality guard is meaningful on any machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from repro.experiments.registry import ExperimentConfig, RunOptions, get_spec
from repro.parallel import run_spec

#: The decomposable quick sweeps the harness times.
DEFAULT_EXPERIMENTS = ("e2", "e5", "e7")


def bench_sweeps(
    experiments=DEFAULT_EXPERIMENTS, workers: int = 2, quick: bool = True
) -> dict:
    """Time each experiment serially and in parallel; verify payloads match."""
    config = ExperimentConfig(quick=quick)
    rows = []
    serial_total = 0.0
    parallel_total = 0.0
    for name in experiments:
        spec = get_spec(name)
        started = time.perf_counter()
        serial_result = run_spec(spec, config, RunOptions(workers=1)).result
        serial_s = time.perf_counter() - started

        started = time.perf_counter()
        parallel_run = run_spec(spec, config, RunOptions(workers=workers))
        parallel_s = time.perf_counter() - started

        if dataclasses.asdict(parallel_run.result) != dataclasses.asdict(
            serial_result
        ):
            raise AssertionError(
                f"parallel result for {name!r} diverged from serial — "
                "the determinism contract is broken; not reporting timings"
            )
        rows.append(
            {
                "experiment": name,
                "cells": len(parallel_run.cells),
                "serial_s": round(serial_s, 4),
                "parallel_s": round(parallel_s, 4),
                "speedup": round(serial_s / parallel_s, 3) if parallel_s else 0.0,
            }
        )
        serial_total += serial_s
        parallel_total += parallel_s
    return {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "results_identical": True,
        "experiments": rows,
        "serial_total_s": round(serial_total, 4),
        "parallel_total_s": round(parallel_total, 4),
        "speedup": (
            round(serial_total / parallel_total, 3) if parallel_total else 0.0
        ),
    }


def _format_table(report: dict) -> str:
    lines = [
        f"sweep bench: workers={report['workers']} "
        f"cpu_count={report['cpu_count']} quick={report['quick']}",
        f"{'experiment':>10}  {'cells':>5}  {'serial (s)':>10}  "
        f"{'parallel (s)':>12}  {'speedup':>7}",
    ]
    for row in report["experiments"]:
        lines.append(
            f"{row['experiment']:>10}  {row['cells']:>5}  "
            f"{row['serial_s']:>10.3f}  {row['parallel_s']:>12.3f}  "
            f"{row['speedup']:>7.2f}"
        )
    lines.append(
        f"{'total':>10}  {'':>5}  {report['serial_total_s']:>10.3f}  "
        f"{report['parallel_total_s']:>12.3f}  {report['speedup']:>7.2f}"
    )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="also write the JSON report here",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for the parallel leg (default 2)",
    )
    parser.add_argument(
        "--experiments", nargs="*", default=list(DEFAULT_EXPERIMENTS),
        metavar="NAME", help="decomposable experiments to time",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="time the full-size sweeps instead of --quick",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    report = bench_sweeps(
        tuple(args.experiments), workers=args.workers, quick=not args.full
    )
    print(_format_table(report))
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
