"""The cell executor: every experiment run is plan → run cells → merge.

Execution model
---------------

An experiment decomposes into :class:`~repro.experiments.registry.
SweepCell` units (one population size, one scheme variant, one fuzz
seed... or, for a spec without a planner, its whole runner).
:func:`_execute_cell` runs one cell, instrumented as the run's
:class:`~repro.experiments.registry.RunOptions` ask, into a
:class:`CellOutcome` — result object, per-cell provenance, metrics
registry, invariant violations, causal reports, profile.  With one
worker the cells run in this process; with more, each is shipped to a
worker process over a task queue and its outcome streamed back over a
result queue.  Either way the outcomes are reassembled in canonical
cell order, so the merged result is independent of worker count and
scheduling.

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

import multiprocessing
import os
import random
import time
import traceback
from contextlib import ExitStack
from queue import Empty
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.registry import RunOptions, SweepCell
from repro.obs.metrics import MetricsRegistry
from repro.sim.rng import derive_seed, derive_substream
from repro.sim.trace import observed_traces

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
    #: The registry every trace the cell built counted into.
    metrics: Any = None
    #: The invariant catalogue's checker names (with
    #: ``options.check_invariants``; None when not asked for).
    checked: Optional[List[str]] = None
    #: Violations from the per-trace suites, in construction order.
    violations: List[Any] = field(default_factory=list)
    #: ``<cell label>/sim<n>`` -> (``CausalSink.summary()``, rendered
    #: report) for the n-th trace the cell built, with
    #: ``options.report``; a trace that saw no publish has no entry.
    causal: Dict[str, Tuple[Dict[str, Any], str]] = field(default_factory=dict)
    #: Per-cell kernel profiler and time-series bundle (with
    #: ``options.profile``).
    profile: Any = None
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
    #: Invariant checker names, or None when no suite was asked for.
    checked: Optional[List[str]] = None
    #: Violations concatenated in canonical cell order.
    violations: List[Any] = field(default_factory=list)
    #: Every cell's :attr:`CellOutcome.causal` entries, canonical order.
    causal: Dict[str, Tuple[Dict[str, Any], str]] = field(default_factory=dict)
    #: Per-cell provenance records, canonical order.
    cells: List[Dict[str, Any]] = field(default_factory=list)


def _one_per_trace(make: Callable[[], Any], made: List[Any]) -> Callable:
    """An :func:`observed_traces` factory: each trace gets its own
    ``make()``, kept in ``made`` in construction order.  Per trace
    because item keys repeat across the systems one cell builds."""

    def factory(trace) -> Any:
        made.append(make())
        return made[-1]

    return factory


def _execute_cell(
    cell: SweepCell, options: RunOptions, experiment: str, seed: Optional[int]
) -> CellOutcome:
    """Run one cell in the current process, instrumented as ``options`` ask.

    The one place a run gets its registry, invariant suites, causal
    sinks, spool, profiler and sampler — none through the runner's
    signature: sinks and registry attach where a trace is built
    (:func:`~repro.sim.trace.observed_traces`), profiler and sampler
    where a simulation is
    (:func:`~repro.sim.engine.monitored_simulations`).  All observe from
    outside the event stream (sinks are transparent, the flight
    recorder's dispatch monitors read only wall time), so attaching them
    cannot change any cell's result — pinned by the transparency and
    worker-count equivalence tests.  A raising runner propagates
    unchanged: in-process that keeps ``KeyboardInterrupt`` and the
    runner's own error type intact; pool workers format it in
    :func:`_worker_loop`.
    """
    # Explicit re-seed, before the runner: protects determinism even if
    # some code path reaches for the module-level random stream.
    stream = derive_cell_stream(experiment, cell.index, seed)
    random.seed(stream)
    outcome = CellOutcome(index=cell.index, label=cell.label)
    outcome.metrics = MetricsRegistry()
    suites: List[Any] = []
    causals: List[Any] = []
    observers = [lambda trace, sink=sink: sink for sink in options.sinks]
    if options.check_invariants:
        from repro.testkit.invariants import InvariantSuite, default_checkers

        observers.append(_one_per_trace(InvariantSuite, suites))
    if options.report:
        from repro.obs.causal import CausalSink, format_causal_report

        observers.append(_one_per_trace(CausalSink, causals))
    started = time.perf_counter()
    with ExitStack() as stack:
        stack.enter_context(observed_traces(*observers, metrics=outcome.metrics))
        if options.profile:
            from repro.obs.profile import KernelProfiler, profile_simulations
            from repro.obs.timeseries import record_simulations

            outcome.profile = KernelProfiler()
            stack.enter_context(profile_simulations(profiler=outcome.profile))
            outcome.timeseries = stack.enter_context(
                record_simulations(outcome.metrics, label=cell.label)
            )
        outcome.result = cell.runner(**cell.kwargs)
    if options.check_invariants:
        # The catalogue, not "some suite was attached": a cell whose
        # traces record nothing was still checked, vacuously.  No live
        # system here (runners tear theirs down): system-needing
        # checkers skip; stream-level invariants still verdict.
        outcome.checked = [checker.name for checker in default_checkers()]
        outcome.violations = [v for suite in suites for v in suite.finalize(None)]
    # A baseline's trace never sees a publish: nothing to explain.
    outcome.causal = {
        f"{cell.label}/sim{ordinal}": (sink.summary(), format_causal_report(sink))
        for ordinal, sink in enumerate(causals)
        if sink.trees
    }
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
    ``merge``, violations and causal reports concatenate in canonical
    order, and the merged result object is byte-identical to what
    ``spec.run(config)`` returns, at any worker count.
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
            else:  # one options value: every cell has the part or none does
                merged.merge(piece)
        if outcome.checked is not None:
            run.checked = outcome.checked
        run.violations.extend(outcome.violations)
        run.causal.update(outcome.causal)
    return run
