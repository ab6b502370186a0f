"""Figure 1: SpMV's share of solver latency.

For each dataset and each of its *converging* solvers, costs the recorded
kernel tally on the FPGA model and reports the fraction of compute
latency spent in the SpMV kernel.  The paper's point: SpMV dominates all
three solvers, so it is the kernel worth reconfiguring.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.experiments.table2 import SOLVER_ORDER

REFERENCE_URB = 8
"""Unroll factor of the fixed SpMV unit used for this figure's costing."""


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """SpMV latency share per (dataset, solver)."""
    model = runner.performance_model()
    table = ExperimentTable(
        experiment_id="Figure 1",
        title="SpMV share of solver compute latency (converging solvers)",
        headers=("ID", "solver", "iterations", "spmv_ms", "total_ms", "spmv_share"),
    )
    shares = []
    for key in runner.resolve_keys(keys):
        prob = runner.problem(key)
        solo = runner.portfolio(key)
        for name in SOLVER_ORDER:
            result = solo[name]
            if not result.converged:
                continue
            latency = model.solver_latency(prob.matrix, result, urb=REFERENCE_URB)
            shares.append(latency.spmv_fraction)
            table.add_row(
                key,
                name,
                result.iterations,
                latency.spmv_seconds * 1e3,
                latency.compute_seconds * 1e3,
                latency.spmv_fraction,
            )
    if shares:
        table.add_note(
            f"mean SpMV share {sum(shares) / len(shares):.1%} — SpMV is the "
            "dominant kernel, as in the paper"
        )
    return table
