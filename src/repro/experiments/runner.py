"""Shared execution layer for the per-figure experiment modules.

The expensive step every evaluation figure shares is the *numerical solve*
of each Table II stand-in.  Because the static baseline runs the exact
same solver with the exact same arithmetic as Acamar's converging attempt
(Section V-E: "for the baseline, we assume the same solver that is being
used in Acamar"), one Acamar solve per dataset supplies the operation
counts for both designs — only the cost model differs.  This module
caches those solves (and the full three-solver portfolio needed by
Table II / Figure 1) per dataset key.
"""

from __future__ import annotations

from functools import lru_cache

from repro import telemetry as tm
from repro.baselines import run_solver_portfolio
from repro.config import AcamarConfig
from repro.core import Acamar, AcamarResult
from repro.datasets import Problem, load_problem
from repro.fpga import PerformanceModel
from repro.gpu import CuSparseSpMVModel
from repro.solvers.base import SolveResult

DEFAULT_KEYS: tuple[str, ...] | None = None
"""``None`` means "all Table II datasets"."""


@lru_cache(maxsize=None)
def problem(key: str) -> Problem:
    """The (cached) stand-in problem for a dataset key."""
    with tm.span("runner.load_problem"):
        return load_problem(key)


@lru_cache(maxsize=None)
def acamar_result(key: str) -> AcamarResult:
    """Acamar's solve of the dataset, under paper-default configuration."""
    prob = problem(key)
    with tm.span("runner.acamar_solve"):
        return Acamar(AcamarConfig()).solve(prob.matrix, prob.b)


@lru_cache(maxsize=None)
def portfolio(key: str) -> dict[str, SolveResult]:
    """Independent Jacobi / CG / BiCG-STAB runs (Table II's ✓/✗ columns)."""
    prob = problem(key)
    with tm.span("runner.portfolio_solve"):
        return run_solver_portfolio(prob.matrix, prob.b)


@lru_cache(maxsize=1)
def performance_model() -> PerformanceModel:
    return PerformanceModel()


@lru_cache(maxsize=1)
def gpu_model() -> CuSparseSpMVModel:
    return CuSparseSpMVModel()


def resolve_keys(keys: tuple[str, ...] | None) -> tuple[str, ...]:
    """``None`` → every Table II key, else the given subset (validated)."""
    from repro.datasets import dataset_keys, dataset_spec

    if keys is None:
        return dataset_keys()
    for key in keys:
        dataset_spec(key)  # raises DatasetError on typos
    return tuple(keys)
