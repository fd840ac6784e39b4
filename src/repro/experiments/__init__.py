"""Claim-reproduction experiments E1–E12 (see DESIGN.md §3).

Each module is runnable (``python -m repro.experiments.eN_...``) and
exposes ``run_eN(*, ...) -> ENResult`` with a ``report()`` table;
``tests/integration/test_experiments.py`` asserts each claim's shape
on the same drivers.  The experiment modules load on first use: a
``run_eN`` / ``ENResult`` attribute imports its module, and the
registry (:mod:`repro.experiments.registry`) imports them all before
``python -m repro.experiments --list`` or any lookup answers, so
importing :mod:`repro.experiments.common` pulls in none of them.
"""

import re
from importlib import import_module

from repro.experiments.registry import (
    EXPERIMENT_MODULES,
    ExperimentConfig,
    ExperimentSpec,
    RunOptions,
    all_specs,
    experiment_names,
    get_spec,
    register,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentSpec",
    "RunOptions",
    "all_specs",
    "experiment_names",
    "get_spec",
    "register",
    "E1Result",
    "E2Result",
    "E3Result",
    "E4Result",
    "E5Result",
    "E6Result",
    "E7Result",
    "E8Result",
    "E9Result",
    "E10Result",
    "E11Result",
    "E12Result",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e5_analytic",
    "run_e5_system",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
]


#: Experiment number -> its module ("1" -> "e1_redundancy").
_MODULE_OF = {module[1:].split("_")[0]: module for module in EXPERIMENT_MODULES}
#: ``run_eN...`` and ``ENResult`` live in experiment N's module.
_EXPERIMENT_EXPORT = re.compile(r"(?:run_e|E)(\d+)")


def __getattr__(name: str):
    match = _EXPERIMENT_EXPORT.match(name)
    if match is None or name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_MODULE_OF[match.group(1)]}")
    return getattr(module, name)
