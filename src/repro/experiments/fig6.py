"""Figure 6: latency speedup of Acamar over the static design.

For each dataset, the static baseline runs the same solver that Acamar
converged with (the paper's optimistic-baseline rule) at a sweep of fixed
``SpMV_URB`` values; speedup is compute latency (baseline / Acamar).
Reconfiguration overhead is reported separately by Figure 13, mirroring
the paper's treatment of latency as a compute-bound comparison with a
reconfiguration-time budget.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.metrics import geometric_mean, latency_speedup

URB_SWEEP = (1, 2, 4, 8, 16, 32, 64)


def speedups_for(key: str, urbs: tuple[int, ...]) -> list[float]:
    """Acamar-over-baseline speedup for each baseline URB on one dataset."""
    model = runner.performance_model()
    prob = runner.problem(key)
    acamar = runner.acamar_result(key)
    acamar_latency = model.acamar_latency(prob.matrix, acamar)
    # The baseline runs the same converging solver with identical numerics,
    # so Acamar's final SolveResult supplies its op counts too.
    final = acamar.final
    values = []
    for urb in urbs:
        static = model.solver_latency(prob.matrix, final, urb=urb)
        values.append(
            latency_speedup(static.compute_seconds, acamar_latency.compute_seconds)
        )
    return values


def run(
    keys: tuple[str, ...] | None = None,
    urbs: tuple[int, ...] = URB_SWEEP,
) -> ExperimentTable:
    """Speedup per (dataset, SpMV_URB) plus the GMEAN row."""
    table = ExperimentTable(
        experiment_id="Figure 6",
        title="Latency speedup of Acamar over static design",
        headers=("ID", *[f"URB={u}" for u in urbs]),
    )
    resolved = runner.resolve_keys(keys)
    per_urb: list[list[float]] = [[] for _ in urbs]
    for key in resolved:
        values = speedups_for(key, urbs)
        for column, value in zip(per_urb, values):
            column.append(value)
        table.add_row(key, *values)
    gmeans = [geometric_mean(column) for column in per_urb]
    table.add_row("GMEAN", *gmeans)
    table.add_note(
        f"max speedup {max(max(column) for column in per_urb):.2f}x at URB=1 "
        "(paper: up to 11.61x); gains diminish and flatten for URB > 16"
    )
    return table
