"""Cell execution with deterministic merge — the experiments' run path.

Every experiment run goes through :func:`run_spec`: the spec plans
independent cells (sizes × seeds × scheme variants via its
``cell_planner``, or its whole runner as the only cell), the cells run
instrumented as one :class:`~repro.experiments.registry.RunOptions`
value asks — in-process with one worker, in ``multiprocessing`` workers
(spawn context) with more — and the outcomes merge in canonical cell
order, so reports, golden fingerprints, ``--json`` manifests and
invariant verdicts are byte-identical at any worker count.  See
``docs/PARALLEL.md`` for the determinism contract.
"""

from repro.parallel.executor import (
    CellFailure,
    CellOutcome,
    ParallelExecutionError,
    SpecRun,
    derive_cell_stream,
    run_cells,
    run_spec,
)

__all__ = [
    "CellFailure",
    "CellOutcome",
    "ParallelExecutionError",
    "SpecRun",
    "derive_cell_stream",
    "run_cells",
    "run_spec",
]
