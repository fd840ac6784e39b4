"""Runs shared across the parallel-executor test modules."""

import functools

import pytest

from repro.experiments.registry import ExperimentConfig, RunOptions, get_spec
from repro.parallel import run_spec


@functools.cache
def _two_worker_run(name):
    return run_spec(get_spec(name), ExperimentConfig(quick=True), RunOptions(workers=2))


@pytest.fixture(scope="session")
def two_worker_run():
    """``two_worker_run(name)``: one bare two-worker quick run per
    experiment for the whole session; the tests only read it."""
    return _two_worker_run
