"""The cell executor: every experiment run is plan → run cells → merge.

Execution model
---------------

An experiment decomposes into :class:`~repro.experiments.registry.
SweepCell` units (one population size, one scheme variant, one fuzz
seed... or, for a spec without a planner, its whole runner).
:func:`_execute_cell` runs one cell, instrumented as the run's
:class:`~repro.experiments.registry.RunOptions` ask, into a
:class:`CellOutcome` — result object, per-cell provenance, metrics
registry, invariant violations, profile.  With one worker the cells run
in this process; with more, each is shipped to a worker process over a
task queue and its outcome streamed back over a result queue.  Either
way the outcomes are reassembled in canonical cell order, so the merged
result is independent of worker count and scheduling.

Determinism contract
--------------------

* Workers use the ``spawn`` start method: no forked parent state, no
  inherited RNG positions.
* Every cell re-seeds the global :mod:`random` stream from the
  explicit ``(experiment, cell, seed)`` derivation
  (:func:`derive_cell_stream`, built on the same collision-free
  :func:`repro.sim.rng.derive_substream` that derives per-subscriber
  interest streams).  Well-behaved cells never touch the global
  stream, but a derivation this explicit makes any accidental use
  deterministic too.
* Cells must be independent: each builds its own system from explicit
  seeds.  The spec's planner/merger pair owns that guarantee; the
  equivalence tests (``tests/parallel/``) and the golden fingerprints
  enforce it.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import random
import time
import traceback
from contextlib import ExitStack
from queue import Empty
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.registry import RunOptions, SweepCell
from repro.sim.rng import derive_seed, derive_substream

#: How long the parent waits between liveness checks while collecting
#: results; a dead worker with outstanding cells fails the run instead
#: of hanging it.
_POLL_INTERVAL_S = 0.2


def derive_cell_stream(experiment: str, cell_index: int, seed: Optional[int]) -> int:
    """The explicit ``(experiment, cell, seed)`` worker stream id.

    The experiment name is folded to 64 bits with the blake2b
    :func:`~repro.sim.rng.derive_seed` and combined with the cell
    index through the collision-free
    :func:`~repro.sim.rng.derive_substream` concatenation — the same
    derivation :class:`~repro.workloads.populations.InterestModel`
    uses for per-subscriber streams.
    """
    return derive_substream(derive_seed(seed or 0, f"cell:{experiment}"), cell_index)


@dataclass
class CellOutcome:
    """What a worker streams back for one cell."""

    index: int
    label: str
    result: Any = None
    #: Per-cell metrics registry (when the runner takes ``metrics``).
    metrics: Any = None
    #: Checker names of the per-cell invariant suite; None when none
    #: was attached (not asked for, or the runner takes no ``sinks``).
    checked: Optional[List[str]] = None
    #: Invariant violations from that suite.
    violations: List[Any] = field(default_factory=list)
    #: Per-cell kernel profiler (with ``options.profile``).
    profile: Any = None
    #: Per-cell time-series bundle (``options.profile`` and a registry).
    timeseries: Any = None
    #: Lightweight per-cell provenance: derivation, cost, worker pid.
    manifest: Dict[str, Any] = field(default_factory=dict)
    #: Formatted traceback when the cell raised; None on success.
    error: Optional[str] = None


@dataclass(frozen=True)
class CellFailure:
    """One failed cell, for :class:`ParallelExecutionError`."""

    label: str
    error: str


class ParallelExecutionError(RuntimeError):
    """One or more cells (or workers) failed."""

    def __init__(self, experiment: str, failures: Sequence[CellFailure]):
        self.experiment = experiment
        self.failures = list(failures)
        details = "\n".join(
            f"--- cell {failure.label} ---\n{failure.error.rstrip()}"
            for failure in self.failures
        )
        super().__init__(
            f"{len(self.failures)} cell(s) of experiment {experiment!r} "
            f"failed:\n{details}"
        )


@dataclass
class SpecRun:
    """The merged view of one experiment execution."""

    result: Any
    #: Canonical-order fold of the per-cell registries / profilers /
    #: time-series bundles; None where no cell produced one.
    metrics: Any = None
    profile: Any = None
    timeseries: Any = None
    #: Invariant checker names, or None when no cell attached a suite.
    checked: Optional[List[str]] = None
    #: Violations concatenated in canonical cell order.
    violations: List[Any] = field(default_factory=list)
    #: Per-cell provenance records, canonical order.
    cells: List[Dict[str, Any]] = field(default_factory=list)


def _accepts(runner: Any, name: str) -> bool:
    try:
        return name in inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False


def _execute_cell(
    cell: SweepCell, options: RunOptions, experiment: str, seed: Optional[int]
) -> CellOutcome:
    """Run one cell in the current process, instrumented as ``options`` ask.

    The one place a run gets its registry, invariant suite, profiler
    and sampler.  All four observe from outside the event stream
    (sinks are transparent, the flight recorder's dispatch monitors read
    only wall time), so attaching them cannot change any cell's result
    — pinned by the transparency and worker-count equivalence tests.
    A raising runner propagates unchanged: in-process that keeps
    ``KeyboardInterrupt`` and the runner's own error type intact; pool
    workers format it in :func:`_worker_loop`.
    """
    # Explicit re-seed, before the runner: protects determinism even if
    # some code path reaches for the module-level random stream.
    stream = derive_cell_stream(experiment, cell.index, seed)
    random.seed(stream)
    outcome = CellOutcome(index=cell.index, label=cell.label)
    # Planned kwargs are resolved against the runner's defaults, so an
    # unset ``metrics`` / ``sinks`` is present as None: test the value.
    kwargs = dict(cell.kwargs)
    if kwargs.get("metrics") is None and _accepts(cell.runner, "metrics"):
        from repro.obs.metrics import MetricsRegistry

        kwargs["metrics"] = MetricsRegistry()
    outcome.metrics = kwargs.get("metrics")
    suite = None
    if _accepts(cell.runner, "sinks"):
        observers = list(options.sinks)
        if options.check_invariants:
            from repro.testkit.invariants import InvariantSuite

            suite = InvariantSuite()
            observers.insert(0, suite)
        if observers:
            # Observers ride behind a primary MemorySink, never in its
            # place: collectors keep their event source.
            from repro.obs.sinks import MemorySink

            kwargs["sinks"] = [*(kwargs.get("sinks") or [MemorySink()]), *observers]
    started = time.perf_counter()
    with ExitStack() as stack:
        if options.profile:
            from repro.obs.profile import KernelProfiler, profile_simulations

            outcome.profile = KernelProfiler()
            stack.enter_context(profile_simulations(profiler=outcome.profile))
            if outcome.metrics is not None:
                from repro.obs.timeseries import record_simulations

                outcome.timeseries = stack.enter_context(
                    record_simulations(outcome.metrics, label=cell.label)
                )
        outcome.result = cell.runner(**kwargs)
    if suite is not None:
        # No live system here (runners tear theirs down): system-needing
        # checkers skip; stream-level invariants still verdict.
        outcome.checked = [checker.name for checker in suite.checkers]
        outcome.violations = suite.finalize(None)
    outcome.manifest = {
        "experiment": experiment,
        "cell": cell.index,
        "label": cell.label,
        "seed": seed,
        "worker_stream": stream,
        "wall_time_s": time.perf_counter() - started,
        "pid": os.getpid(),
    }
    return outcome


def _worker_loop(task_queue, result_queue) -> None:
    """Worker main: drain ``_execute_cell`` argument tuples until the
    None sentinel arrives."""
    while True:
        task = task_queue.get()
        if task is None:
            return
        try:
            outcome = _execute_cell(*task)
        except BaseException:  # never die silently with a cell in hand
            cell = task[0]
            outcome = CellOutcome(cell.index, cell.label, error=traceback.format_exc())
        result_queue.put(outcome)


def run_cells(
    cells,
    options: RunOptions = RunOptions(),
    *,
    experiment: str,
    seed: Optional[int] = None,
) -> List[CellOutcome]:
    """Run ``cells`` as ``options`` ask; canonical-order outcomes.

    With one worker (or a single cell) everything runs in-process, no
    subprocess round-trip, and a raising cell propagates its exception
    unchanged.  Across a pool, raises :class:`ParallelExecutionError`
    if any cell raised or a worker died.  Otherwise returns one
    :class:`CellOutcome` per cell, ordered by cell index regardless of
    completion order.
    """
    cells = list(cells)
    if options.workers == 1 or len(cells) <= 1:
        return [_execute_cell(cell, options, experiment, seed) for cell in cells]
    outcomes = _run_in_pool(cells, options, experiment, seed)
    outcomes.sort(key=lambda outcome: outcome.index)
    failures = [
        CellFailure(label=o.label, error=o.error) for o in outcomes if o.error
    ]
    if failures:
        raise ParallelExecutionError(experiment, failures)
    return outcomes


def _run_in_pool(cells, options, experiment, seed) -> List[CellOutcome]:
    context = multiprocessing.get_context("spawn")
    task_queue = context.Queue()
    result_queue = context.Queue()
    processes = [
        context.Process(
            target=_worker_loop, args=(task_queue, result_queue), daemon=True
        )
        for _ in range(min(options.workers, len(cells)))
    ]
    for process in processes:
        process.start()
    try:
        for cell in cells:
            task_queue.put((cell, options, experiment, seed))
        for _ in processes:
            task_queue.put(None)
        outcomes: List[CellOutcome] = []
        while len(outcomes) < len(cells):
            try:
                outcomes.append(result_queue.get(timeout=_POLL_INTERVAL_S))
            except Empty:  # no result yet — check worker liveness
                if all(not process.is_alive() for process in processes):
                    # Drain whatever made it onto the queue first.
                    while len(outcomes) < len(cells):
                        try:
                            outcomes.append(result_queue.get_nowait())
                        except Empty:
                            break
                    if len(outcomes) < len(cells):
                        done = {outcome.index for outcome in outcomes}
                        missing = [
                            cell.label for cell in cells if cell.index not in done
                        ]
                        raise ParallelExecutionError(
                            experiment,
                            [
                                CellFailure(
                                    label=label,
                                    error="worker died before returning a result",
                                )
                                for label in missing
                            ],
                        )
        return outcomes
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        task_queue.close()
        result_queue.close()


def run_spec(spec, config, options: RunOptions = RunOptions()) -> SpecRun:
    """Run one registered experiment: plan cells, run them, merge.

    The one run path — a spec without a planner is a single cell, one
    worker is the in-process case.  Per-cell registries, profilers and
    time-series bundles fold in canonical order through their own
    ``merge``, violations concatenate in canonical order, and the
    merged result object is byte-identical to what ``spec.run(config)``
    returns, at any worker count.
    """
    outcomes = run_cells(
        spec.plan_cells(config), options, experiment=spec.name, seed=config.seed
    )
    run = SpecRun(
        result=spec.merge_cells(config, [outcome.result for outcome in outcomes]),
        cells=[outcome.manifest for outcome in outcomes],
    )
    for outcome in outcomes:
        for part in ("metrics", "profile", "timeseries"):
            piece, merged = getattr(outcome, part), getattr(run, part)
            if merged is None:
                setattr(run, part, piece)
            elif piece is not None and piece is not merged:  # caller-shared
                merged.merge(piece)
        if outcome.checked is not None:
            run.checked = outcome.checked
        run.violations.extend(outcome.violations)
    return run
