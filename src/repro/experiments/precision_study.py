"""Precision study — how much of Table II is a 32-bit phenomenon?

The paper fixes the fabric to 32-bit floats (Section V-B).  Some Table II
failures are *structural* (Jacobi's spectral radius exceeds 1 regardless
of precision); others are *numerical* (Krylov stagnation and breakdown
amplified by fp32 rounding).  This extension re-runs the per-solver
convergence sweep in fp64 and diffs the ✓/✗ patterns, separating the two
failure sources — the analysis a designer weighing fp64 DSP cost against
convergence coverage would want.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import run_solver_portfolio
from repro.config import AcamarConfig
from repro.datasets import dataset_spec
from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.experiments.table2 import SOLVER_ORDER


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """fp32 vs fp64 convergence marks per (dataset, solver)."""
    table = ExperimentTable(
        experiment_id="Extension E3",
        title="Convergence pattern sensitivity to precision (fp32 -> fp64)",
        headers=(
            "ID",
            *[f"{s}32" for s in ("JB", "CG", "BiCG")],
            *[f"{s}64" for s in ("JB", "CG", "BiCG")],
            "changed",
        ),
    )
    config64 = AcamarConfig(dtype=np.float64)
    flips = 0
    cells = 0
    for key in runner.resolve_keys(keys):
        problem = runner.problem(key)
        fp32 = runner.portfolio(key)
        fp64 = run_solver_portfolio(problem.matrix, problem.b, config=config64)
        marks32 = [fp32[name].converged for name in SOLVER_ORDER]
        marks64 = [fp64[name].converged for name in SOLVER_ORDER]
        changed = sum(a != b for a, b in zip(marks32, marks64))
        flips += changed
        cells += len(SOLVER_ORDER)
        table.add_row(dataset_spec(key).key, *marks32, *marks64, changed)
    table.add_note(
        f"{flips}/{cells} (dataset, solver) outcomes change under fp64 — "
        "the remainder of Table II's failures are structural (spectral "
        "radius / indefiniteness), which no precision fixes; runtime "
        "solver switching stays necessary even on an fp64 fabric"
    )
    return table
