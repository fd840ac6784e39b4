"""The unified experiment registry.

Every claim-reproduction experiment registers itself with a
:func:`register` decorator::

    @register(
        "e2",
        claim="deliver news ... within tens of seconds",
        quick={"sizes": (100, 400), "items": 3},
    )
    def run_e2(*, sizes=(100, 500, 2000), ...) -> E2Result: ...

and the CLI (``python -m repro.experiments``) drives them all through
one uniform protocol: an :class:`ExperimentConfig` says *what* to run
(seed, quick flag, keyword overrides — every override validated
against the runner's actual signature, so an unknown key is a
:class:`ConfigurationError`, not a silent typo) and a
:class:`RunOptions` says *how* (invariant suite, causal report,
flight recorder, observer sinks, worker count).  Either way the
outcome is the experiment's ``*Result`` object, which always carries a
``report()`` method.

Quick-mode parameters live on the spec itself instead of a parallel
table of lambdas, so ``--quick`` and ``--list`` can never drift out of
sync with the experiments.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class ExperimentConfig:
    """What a caller asks of an experiment: seed, scale, overrides."""

    seed: Optional[int] = None
    quick: bool = False
    overrides: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunOptions:
    """How the harness runs an experiment — one value, applied to every
    spec alike by :func:`repro.parallel.run_spec`.

    ``check_invariants`` gives every trace a cell builds its own
    :mod:`repro.testkit` invariant suite, ``report`` its own
    :class:`~repro.obs.causal.CausalSink`, and ``sinks`` are further
    observers shared by all of them (the ``--sink jsonl`` spool) — all
    attached where the trace is built
    (:func:`repro.sim.trace.observed_traces`), so no runner declares
    them; ``profile`` attaches the flight recorder (kernel profiler and
    time-series sampler); ``workers`` is how many processes the cells
    fan out over, one meaning in-process.
    """

    check_invariants: bool = False
    report: bool = False
    profile: bool = False
    workers: int = 1
    sinks: Sequence[Any] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.workers > 1 and self.sinks:
            raise ConfigurationError(
                "observer sinks cannot cross a process boundary; "
                "attach them with workers=1"
            )


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of an experiment's sweep.

    ``runner`` must be a module-level callable (workers import it by
    reference) and ``kwargs`` picklable; running every cell and folding
    the results through the spec's merger must be byte-identical to
    calling the runner whole.  ``index`` is the canonical merge position.
    """

    index: int
    label: str
    runner: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: runner, claim, quick-mode parameters.

    Sweep-shaped experiments additionally carry a *cell decomposition
    hook*: ``cell_planner`` maps the fully resolved runner kwargs to a
    list of independent :class:`SweepCell`, and ``cell_merger`` folds
    the per-cell results (in canonical ``index`` order) back into the
    one ``*Result`` object the whole runner returns.  A spec without
    the hooks is one cell — its runner — so the executor
    (:mod:`repro.parallel`) drives every spec the same way.
    """

    name: str
    claim: str
    runner: Callable[..., Any]
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    cell_planner: Optional[Callable[[Dict[str, Any]], "list[SweepCell]"]] = None
    cell_merger: Optional[Callable[[Dict[str, Any], list], Any]] = None

    @property
    def parameters(self) -> tuple[str, ...]:
        """Keyword parameters the runner accepts."""
        return tuple(inspect.signature(self.runner).parameters)

    @property
    def supports_cells(self) -> bool:
        """Whether this experiment registered a cell plan (without one
        it is a single cell: its whole runner)."""
        return self.cell_planner is not None and self.cell_merger is not None

    def resolved_kwargs(self, config: "ExperimentConfig") -> Dict[str, Any]:
        """:meth:`build_kwargs` plus the runner's own defaults.

        Cell planners need every sweep axis, including those the caller
        left at their defaults.
        """
        kwargs = self.build_kwargs(config)
        resolved: Dict[str, Any] = {}
        for name, parameter in inspect.signature(self.runner).parameters.items():
            if parameter.default is not inspect.Parameter.empty:
                resolved[name] = parameter.default
        resolved.update(kwargs)
        return resolved

    def plan_cells(self, config: "ExperimentConfig") -> "list[SweepCell]":
        """The canonical cell decomposition for ``config``: the
        planner's cells, or the whole runner as the only cell."""
        if not self.supports_cells:
            return [SweepCell(0, self.name, self.runner, self.build_kwargs(config))]
        cells = self.cell_planner(self.resolved_kwargs(config))
        for expected, cell in enumerate(cells):
            if cell.index != expected:
                raise ConfigurationError(
                    f"experiment {self.name!r} planned cell {cell.label!r} "
                    f"with index {cell.index}, expected {expected}"
                )
        return cells

    def merge_cells(self, config: "ExperimentConfig", results: list) -> Any:
        """Fold per-cell results (canonical order) into one ``*Result``."""
        if not self.supports_cells:
            (result,) = results
            return result
        return self.cell_merger(self.resolved_kwargs(config), results)

    def build_kwargs(self, config: ExperimentConfig) -> Dict[str, Any]:
        """Merge quick params, overrides and the seed; validate names.

        Precedence (lowest to highest): runner defaults, quick params
        (only with ``config.quick``), ``config.overrides``,
        ``config.seed``.
        """
        accepted = set(self.parameters)
        kwargs: Dict[str, Any] = dict(self.quick_params) if config.quick else {}
        kwargs.update(config.overrides)
        unknown = sorted(set(kwargs) - accepted)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} does not accept {unknown}; "
                f"valid parameters: {sorted(accepted)}"
            )
        if config.seed is not None:
            if "seed" not in accepted:
                raise ConfigurationError(
                    f"experiment {self.name!r} takes no seed parameter"
                )
            kwargs["seed"] = config.seed
        return kwargs

    def run(self, config: Optional[ExperimentConfig] = None) -> Any:
        """Call the runner whole and uninstrumented; returns its
        ``*Result`` (the reference the equivalence tests hold
        :func:`repro.parallel.run_spec` to)."""
        resolved = config if config is not None else ExperimentConfig()
        return self.runner(**self.build_kwargs(resolved))


#: name -> spec, in registration (numeric) order.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(
    name: str,
    *,
    claim: str,
    quick: Optional[Mapping[str, Any]] = None,
    cells: Optional[Callable[[Dict[str, Any]], "list[SweepCell]"]] = None,
    merge: Optional[Callable[[Dict[str, Any], list], Any]] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator that registers the wrapped runner as experiment ``name``.

    ``claim`` is the paper claim the experiment reproduces (shown by
    ``--list``); ``quick`` holds the reduced-scale keyword arguments
    ``--quick`` applies.  Quick keys are validated against the runner
    signature at registration time, so a drifting rename fails at
    import, not mid-run.

    ``cells``/``merge`` (both or neither) register the sweep's cell
    decomposition for the executor: ``cells(resolved_kwargs)`` plans
    independent :class:`SweepCell` units, ``merge(resolved_kwargs,
    results)`` reassembles their results into the one ``*Result``.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in REGISTRY:
            raise ConfigurationError(f"experiment {name!r} registered twice")
        if (cells is None) != (merge is None):
            raise ConfigurationError(
                f"experiment {name!r} must register cells and merge together"
            )
        quick_params = dict(quick or {})
        accepted = set(inspect.signature(fn).parameters)
        unknown = sorted(set(quick_params) - accepted)
        if unknown:
            raise ConfigurationError(
                f"experiment {name!r} quick params {unknown} not in its "
                f"signature {sorted(accepted)}"
            )
        REGISTRY[name] = ExperimentSpec(
            name=name,
            claim=claim,
            runner=fn,
            quick_params=quick_params,
            cell_planner=cells,
            cell_merger=merge,
        )
        return fn

    return decorator


def _ensure_loaded() -> None:
    """Importing the package runs every ``@register`` decorator."""
    import repro.experiments  # noqa: F401  (side effect: registration)


def get_spec(name: str) -> ExperimentSpec:
    _ensure_loaded()
    spec = REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {experiment_names()}"
        )
    return spec


def experiment_names() -> list[str]:
    _ensure_loaded()
    return list(REGISTRY)


def all_specs() -> list[ExperimentSpec]:
    _ensure_loaded()
    return list(REGISTRY.values())
