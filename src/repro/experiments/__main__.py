"""Run claim-reproduction experiments through the unified registry.

Usage::

    python -m repro.experiments                  # all of E1–E12 (tens of minutes)
    python -m repro.experiments e1 e4 e10        # a selection
    python -m repro.experiments --quick          # reduced sizes (a few minutes)
    python -m repro.experiments --list           # what exists, with claims
    python -m repro.experiments --json out/ e2   # also write run artifacts
    python -m repro.experiments e2 --quick --report   # + causal report

``--json DIR`` writes one :class:`~repro.obs.manifest.RunManifest`
per experiment (seed, parameters, git revision, wall time, result
payload) into ``DIR/<name>.json`` — the per-run provenance artifact.

``--report`` gives every NewsWire system an experiment builds its own
:class:`~repro.obs.causal.CausalSink`: after the printed report come
critical-path / hop / loss-attribution sections headed ``--- causal
report (<cell label>/sim<n>) ---``, and the manifest gains an
``extra.causal`` summary under the same labels.  ``--check-invariants``
and ``--sink jsonl`` attach the same way — where a trace is built — so
all three apply to all twelve experiments.  ``--backend`` and ``--sink
memory|streaming`` map to one runner parameter each; an experiment
without it runs unchanged under a ``[eN takes no <parameter>; <flag>
ignored]`` note on stderr.

Every run is :func:`repro.parallel.run_spec` — plan cells, run them,
merge.  ``--workers N`` fans the cells of each sweep-shaped experiment
(E2, E5, E7, E12) out over N worker processes; reports, manifests and
invariant verdicts are byte-identical at any worker count
(``docs/PARALLEL.md``).

Each printed report is also what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentSpec,
    RunOptions,
    all_specs,
    experiment_names,
    get_spec,
)
from repro.obs.manifest import RunManifest


def _list_specs() -> str:
    lines = []
    for spec in all_specs():
        quick = (
            ", ".join(f"{k}={v!r}" for k, v in spec.quick_params.items())
            or "(defaults)"
        )
        lines.append(f"{spec.name:>4}  {spec.claim}")
        lines.append(f"      quick: {quick}")
    return "\n".join(lines)


def _result_payload(result) -> object:
    """The JSON-able view of an experiment result."""
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return result


def _run_one(
    spec: ExperimentSpec,
    config: ExperimentConfig,
    options: RunOptions,
    json_dir: Optional[Path],
    profile_dir: Path,
) -> tuple[float, list]:
    """Run one experiment, print its report, write its manifest.

    The run itself — cells, instrumentation, merge — is
    :func:`repro.parallel.run_spec`'s; everything printed or written
    here is byte-identical at any ``options.workers`` (modulo
    wall-time/provenance manifest fields).  Returns the wall time and
    any invariant violations (empty unless ``options.check_invariants``
    attached suites).  With ``options.report`` each system's causal
    report follows the result's own; with ``options.profile`` the flight
    recorder's table comes next and its JSON/JSONL artifacts land in
    ``profile_dir``.
    """
    # Deferred: only a run needs the executor (and multiprocessing).
    from repro.parallel import run_spec

    manifest = RunManifest.start(
        experiment=spec.name,
        seed=config.seed,
        quick=config.quick,
        config=spec.build_kwargs(config),
    )
    path = json_dir / f"{spec.name}.json" if json_dir is not None else None
    started = time.time()
    try:
        run = run_spec(spec, config, options)
    except Exception as exc:
        # Don't abandon a started manifest: record the failure so the
        # artifact directory still explains what happened.
        if path is not None:
            manifest.finish(
                claim=spec.claim,
                error={
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                },
            ).write(path)
            print(f"[{spec.name} failed; manifest -> {path}]", file=sys.stderr)
        raise
    elapsed = time.time() - started
    result = run.result
    print(result.report())
    extra = {}
    for label, (summary, text) in run.causal.items():
        print(f"\n--- causal report ({label}) ---\n\n{text}")
        extra.setdefault("causal", {})[label] = summary
    if run.profile is not None:
        from repro.obs.profile import format_profile_report

        print()
        print(format_profile_report(run.profile))
        profile_dir.mkdir(parents=True, exist_ok=True)
        profile_path = profile_dir / f"{spec.name}-profile.json"
        profile_path.write_text(
            json.dumps(run.profile.summary(), indent=2) + "\n", encoding="utf-8"
        )
        extra["profile"] = {"path": str(profile_path), **run.profile.summary(top=5)}
        print(f"[{spec.name} profile -> {profile_path}]")
        series_path = run.timeseries.write_jsonl(
            profile_dir / f"{spec.name}-timeseries.jsonl"
        )
        extra["timeseries"] = {"path": str(series_path), **run.timeseries.summary()}
        print(f"[{spec.name} timeseries -> {series_path}]")
    if run.checked is not None:
        if run.violations:
            print(f"[{spec.name} invariants: {len(run.violations)} violation(s)]")
            for violation in run.violations:
                print(f"  {violation}")
        else:
            print(f"[{spec.name} invariants: clean]")
        extra["invariants"] = {
            "checked": run.checked,
            "violations": [violation.as_dict() for violation in run.violations],
        }
    if path is not None:
        manifest.finish(
            metrics=run.metrics.snapshot(),
            result=_result_payload(result),
            claim=spec.claim,
            **extra,
        ).write(path)
        print(f"[{spec.name} manifest -> {path}]")
    return elapsed, run.violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the E1-E12 claim-reproduction experiments.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="experiments to run (default: all, in order)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_specs",
        help="list registered experiments with their claims and quick params",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run with each spec's reduced-scale quick parameters",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the experiment seed (default: each runner's own)",
    )
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="write a RunManifest artifact per experiment into DIR",
    )
    parser.add_argument(
        "--report", action="store_true",
        help=(
            "attach a CausalSink to every NewsWire system an experiment "
            "builds: print critical-path / hop-count / loss-attribution "
            "sections and store extra.causal in --json manifests"
        ),
    )
    parser.add_argument(
        "--backend", choices=("object", "columnar"), default="object",
        help=(
            "state representation for experiments that support it (e2, "
            "e6): 'object' is the faithful per-agent deployment, "
            "'columnar' the struct-of-arrays mega-scale backend "
            "(docs/SCALE.md); experiments without the parameter note "
            "and ignore the flag"
        ),
    )
    parser.add_argument(
        "--sink", choices=("auto", "memory", "streaming", "jsonl"),
        default="auto",
        help=(
            "primary trace sink for experiments that support it: "
            "'memory' retains events, 'streaming' folds bounded "
            "aggregates; the default 'auto' uses memory below "
            "10,000 nodes and streaming at or above "
            "(repro.experiments.e2_latency.STREAMING_NODE_THRESHOLD). "
            "'jsonl' keeps every experiment's own primary and "
            "additionally spools raw events to traces/<name>.jsonl "
            "(needs --workers 1)"
        ),
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help=(
            "attach a repro.testkit invariant suite to every trace an "
            "experiment builds; print violations, store them under "
            "extra.invariants in --json manifests, and exit non-zero "
            "on any violation"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help=(
            "fan each experiment's cells out over N worker processes "
            "with deterministic merge (default 1: in-process; see "
            "docs/PARALLEL.md)"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "attach the flight recorder: print a per-category dispatch "
            "wall-time table + top hot handlers after each report and "
            "write <name>-profile.json / <name>-timeseries.jsonl "
            "artifacts; results stay byte-identical (the monitors read "
            "only wall time, never the RNG or event order)"
        ),
    )
    parser.add_argument(
        "--profile-dir", metavar="DIR", default="profile",
        help=(
            "directory for --profile artifacts (default: profile/)"
        ),
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help / bad flags
        # exc.code may be None, an int, or an arbitrary message object
        # (e.g. SystemExit(str)); only ints pass through unchanged.
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 2

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.sink == "jsonl" and args.workers > 1:
        print(
            "--sink jsonl needs --workers 1: an open trace file cannot "
            "cross a process boundary",
            file=sys.stderr,
        )
        return 2

    if args.list_specs:
        print(_list_specs())
        return 0

    try:
        specs = [get_spec(name) for name in (args.names or experiment_names())]
    except ConfigurationError as exc:
        print(exc)
        return 2

    json_dir = Path(args.json) if args.json is not None else None
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
    config = ExperimentConfig(seed=args.seed, quick=args.quick)
    options = RunOptions(
        check_invariants=args.check_invariants,
        report=args.report,
        profile=args.profile,
        workers=args.workers,
    )
    # One row per flag in use that needs something of the spec: (flag
    # as typed, what the spec must take, runner override).  Rows with
    # no override act through the options; a spec that lacks what a
    # flag needs runs unchanged under a note.
    requested = []
    if args.backend != "object":
        requested.append(("--backend", "backend", args.backend))
    if args.sink not in ("auto", "jsonl"):
        requested.append(("--sink", "sink", args.sink))
    if args.workers > 1:
        requested.append(("--workers", "cells", None))
    violated = False
    for spec in specs:
        takes = {*spec.parameters, *(["cells"] if spec.supports_cells else [])}
        overrides = {}
        for flag, needs, value in requested:
            if needs not in takes:
                print(
                    f"[{spec.name} takes no {needs}; {flag} ignored]",
                    file=sys.stderr,
                )
            elif value is not None:
                overrides[needs] = value
        spec_options = options
        jsonl_sink = None
        if args.sink == "jsonl":
            from repro.obs.sinks import JsonlFileSink

            trace_path = Path("traces") / f"{spec.name}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            jsonl_sink = JsonlFileSink(trace_path)
            spec_options = dataclasses.replace(options, sinks=(jsonl_sink,))
        try:
            elapsed, violations = _run_one(
                spec,
                dataclasses.replace(config, overrides=overrides),
                spec_options,
                json_dir,
                Path(args.profile_dir),
            )
        finally:
            if jsonl_sink is not None:
                jsonl_sink.close()
                print(f"[{spec.name} trace -> {trace_path}]")
        violated = violated or bool(violations)
        print(f"[{spec.name} completed in {elapsed:.1f}s]\n")
    return 1 if violated else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
