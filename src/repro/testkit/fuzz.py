"""Fuzzing CLI: randomized scenarios under the invariant suite.

Usage::

    python -m repro.testkit.fuzz --seeds 50 --quick
    python -m repro.testkit.fuzz --seeds 200 --quick --workers 4
    python -m repro.testkit.fuzz --seeds 25 --quick --profile routing
    python -m repro.testkit.fuzz --replay fuzz-repros/repro-seed7.json

Each seed deterministically samples one scenario (topology,
subscriptions, workload, failure schedule), runs it with every
invariant checker attached, and — on a violation — greedily shrinks
the scenario and writes a replayable repro file.  Exit status is
non-zero when any seed violated an invariant.

``--workers N`` fans the seed batch out over N worker processes via
:mod:`repro.parallel`; output stays in seed order and byte-identical
to a serial run (scenarios are deterministic per seed).  Shrinking
still happens in the parent: a failing seed's scenario is re-run
in-process to recover the live violation objects.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.testkit.invariants import default_checkers
from repro.testkit.scenarios import (
    SCENARIO_PROFILES,
    FuzzScenario,
    run_scenario,
    sample_scenario,
)
from repro.testkit.shrink import shrink_scenario, write_repro


def run_fuzz_seed(
    *, seed: int, quick: bool = False, profile: str = "default"
) -> dict:
    """One fuzz cell: run one seeded scenario, return a picklable view.

    Module-level (and returning only strings/bools) so the parallel
    executor's spawn workers can import and ship it; the live
    :class:`~repro.testkit.scenarios.ScenarioResult` stays worker-side.
    """
    result = run_scenario(sample_scenario(seed, quick=quick, profile=profile))
    return {
        "seed": seed,
        "ok": result.ok,
        "summary": result.summary_line(),
        "violations": [str(violation) for violation in result.violations],
    }


def _replay(path: str) -> int:
    scenario = FuzzScenario.read(path)
    result = run_scenario(scenario)
    print(result.summary_line())
    for violation in result.violations:
        print(f"  {violation}")
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit.fuzz",
        description="Fuzz NewsWire scenarios under the protocol invariant suite.",
    )
    parser.add_argument(
        "--seeds", type=int, default=25, help="number of seeded scenarios to run"
    )
    parser.add_argument(
        "--seed-start", type=int, default=0, help="first seed of the range"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller populations/workloads (CI smoke budget)",
    )
    parser.add_argument(
        "--profile",
        choices=SCENARIO_PROFILES,
        default="default",
        help=(
            "scenario sampling profile: 'routing' adds churn storms + "
            "summary corruption under a stabilizing scheme"
        ),
    )
    parser.add_argument(
        "--out",
        default="fuzz-repros",
        help="directory for shrunk repro files (created on demand)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue through remaining seeds after a violation",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report violations without minimizing the scenario",
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="re-run a scenario or repro file and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run the seed batch across N worker processes (default 1: "
            "serial); output order and exit status are identical"
        ),
    )
    parser.add_argument(
        "--list-invariants",
        action="store_true",
        help="print the invariant catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_invariants:
        for checker in default_checkers():
            doc = (checker.__doc__ or "").strip().splitlines()[0]
            print(f"{checker.name}: {doc}")
        return 0
    if args.replay:
        return _replay(args.replay)
    if args.seeds <= 0:
        parser.error("--seeds must be positive")
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    batch = None
    if args.workers > 1:
        # Fan the seed batch out over worker processes; each cell ships
        # back a picklable summary.  Printing, shrinking and early exit
        # stay in the parent, in seed order, so output is identical to
        # the serial path (every scenario is deterministic per seed).
        from repro.experiments.registry import RunOptions, SweepCell
        from repro.parallel import run_cells

        outcomes = run_cells(
            [
                SweepCell(
                    index=position,
                    label=f"seed={seed}",
                    runner=run_fuzz_seed,
                    kwargs={
                        "seed": seed,
                        "quick": args.quick,
                        "profile": args.profile,
                    },
                )
                for position, seed in enumerate(seeds)
            ],
            RunOptions(workers=args.workers),
            experiment="fuzz",
            seed=args.seed_start,
        )
        batch = [outcome.result for outcome in outcomes]

    failed_seeds = []
    for position, seed in enumerate(seeds):
        if batch is None:
            scenario = sample_scenario(seed, quick=args.quick, profile=args.profile)
            result = run_scenario(scenario)
            ok = result.ok
            summary = result.summary_line()
            violation_lines = [str(v) for v in result.violations]
        else:
            cell = batch[position]
            scenario = result = None
            ok = cell["ok"]
            summary = cell["summary"]
            violation_lines = cell["violations"]
        print(summary)
        if ok:
            continue
        failed_seeds.append(seed)
        for line in violation_lines:
            print(f"  {line}")
        if args.no_shrink:
            if not args.keep_going:
                break
            continue
        if scenario is None:
            # Parallel path: re-run the failing seed in-process to
            # recover live Violation objects for the shrinker.
            scenario = sample_scenario(seed, quick=args.quick, profile=args.profile)
            result = run_scenario(scenario)
        shrunk = shrink_scenario(scenario, result.violations)
        path = write_repro(
            Path(args.out) / f"repro-seed{seed}.json", shrunk
        )
        print(
            f"  shrunk {shrunk.original_size} -> {shrunk.shrunk_size} "
            f"in {shrunk.runs} runs; repro written to {path}"
        )
        if not args.keep_going:
            break
    if failed_seeds:
        print(
            f"FAIL: {len(failed_seeds)} seed(s) violated invariants: "
            f"{failed_seeds}"
        )
        return 1
    print(f"OK: {args.seeds} seeds, no invariant violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
