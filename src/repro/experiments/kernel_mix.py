"""Kernel-mix breakdown — Figure 1 at full resolution (extension).

Figure 1 shows SpMV's share of solver time; this extension splits the
remainder by kernel kind (dot / axpy / scale / vadd / norm) for every
converging (dataset, solver) pair, exposing *which* dense kernels each
algorithm spends its non-SpMV time in — the data a floorplanner would
use to size the static dense units.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.experiments.table2 import SOLVER_ORDER
from repro.solvers.base import OpCounter

REFERENCE_URB = 8


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Compute-time share per kernel kind per (dataset, solver)."""
    model = runner.performance_model()
    table = ExperimentTable(
        experiment_id="Extension E2",
        title="Per-kernel share of solver compute time",
        headers=("ID", "solver", "spmv", *OpCounter.DENSE_KINDS, "init"),
    )
    for key in runner.resolve_keys(keys):
        problem = runner.problem(key)
        solo = runner.portfolio(key)
        for name in SOLVER_ORDER:
            result = solo[name]
            if not result.converged:
                continue
            latency = model.solver_latency(
                problem.matrix, result, urb=REFERENCE_URB
            )
            total = latency.compute_seconds
            breakdown = model.dense_breakdown(result.ops)
            dense_shares = [
                model.device.cycles_to_seconds(
                    breakdown[kind].cycles
                ) / total if kind in breakdown else 0.0
                for kind in OpCounter.DENSE_KINDS
            ]
            table.add_row(
                key,
                name,
                latency.spmv_seconds / total,
                *dense_shares,
                latency.init_seconds / total,
            )
    table.add_note(
        "rows sum to ~1; SpMV dominates everywhere, with dot/axpy the "
        "largest dense consumers for the Krylov methods and scale/vadd "
        "for Jacobi — matching each algorithm's kernel schedule"
    )
    return table
