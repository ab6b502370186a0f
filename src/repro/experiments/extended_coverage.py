"""Extended solver coverage — Table II beyond the paper's three solvers.

The paper's Table II shows no *single* solver among Jacobi / CG /
BiCG-STAB covers all 25 datasets.  This extension experiment asks the
natural follow-up: would a larger solver menu change the conclusion?
It runs the six additional (vectorized) methods in the registry over the
stand-ins and tabulates convergence next to the paper's three.

The result sharpens the paper's motivation: even GMRES — the most robust
general-purpose method — fails on some structural classes at practical
restart lengths, so *runtime switching* (the Solver Modifier), not a
bigger static menu, is what guarantees coverage.
"""

from __future__ import annotations

from repro.datasets import dataset_spec
from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.solvers import make_solver

EXTENSION_SOLVERS = ("bicg", "conjugate_residual", "pcg", "gmres", "srj",
                     "chebyshev")
"""Vectorized extension methods (Gauss-Seidel/SOR sweep in Python row
loops and are too slow for the full suite)."""

DEFAULT_SUBSET = ("2C", "Wi", "If", "Wa", "Fe", "Eb", "Bc", "Li", "Ct",
                  "Fi", "Ci", "Tf")
"""A 12-dataset subset covering every Table II structural class."""

EXTENSION_MAX_ITERATIONS = 1200
"""Cap for the extension runs (failures would otherwise burn the full
4000-iteration budget six extra times per dataset)."""


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Convergence marks for all nine vectorized solvers per dataset."""
    keys = DEFAULT_SUBSET if keys is None else runner.resolve_keys(keys)
    table = ExperimentTable(
        experiment_id="Extension E1",
        title="Solver coverage beyond the paper's three (capped at "
        f"{EXTENSION_MAX_ITERATIONS} iterations)",
        headers=("ID", "JB", "CG", "BiCG-STAB", *EXTENSION_SOLVERS),
    )
    coverage = {name: 0 for name in
                ("jacobi", "cg", "bicgstab", *EXTENSION_SOLVERS)}
    for key in keys:
        spec = dataset_spec(key)
        problem = runner.problem(key)
        solo = runner.portfolio(key)
        marks = [
            solo["jacobi"].converged,
            solo["cg"].converged,
            solo["bicgstab"].converged,
        ]
        for name, converged in zip(("jacobi", "cg", "bicgstab"), marks):
            coverage[name] += converged
        for name in EXTENSION_SOLVERS:
            solver = make_solver(
                name,
                max_iterations=EXTENSION_MAX_ITERATIONS,
                setup_iterations=100,
            )
            result = solver.solve(problem.matrix, problem.b)
            marks.append(result.converged)
            coverage[name] += result.converged
        table.add_row(spec.key, *marks)
    best = max(coverage.values())
    universal = [name for name, count in coverage.items() if count == len(keys)]
    table.add_note(
        "datasets covered per solver: "
        + ", ".join(f"{k}={v}" for k, v in coverage.items())
    )
    if universal:
        table.add_note(f"solvers covering everything: {universal}")
    else:
        table.add_note(
            f"no single solver covers all {len(keys)} datasets (best: "
            f"{best}) — a bigger static menu does not replace runtime "
            "switching"
        )
    return table
