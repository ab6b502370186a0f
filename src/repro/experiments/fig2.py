"""Figure 2: baseline SpMV resource underutilization vs unroll factor.

Evaluates Eq. 5 over every dataset's NNZ/row profile for a sweep of fixed
unroll factors.  The paper's takeaway reproduced here: no single unroll
factor is optimal for all datasets — the argmin column moves.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import mean_underutilization

URB_SWEEP = (2, 4, 8, 16, 32, 64)


def run(
    keys: tuple[str, ...] | None = None,
    urbs: tuple[int, ...] = URB_SWEEP,
) -> ExperimentTable:
    """Mean Eq. 5 underutilization per (dataset, unroll factor)."""
    table = ExperimentTable(
        experiment_id="Figure 2",
        title="Baseline SpMV resource underutilization vs unroll factor",
        headers=("ID", *[f"URB={u}" for u in urbs], "best URB"),
    )
    best_urbs = []
    for key in runner.resolve_keys(keys):
        lengths = runner.problem(key).matrix.row_lengths()
        values = [mean_underutilization(lengths, u) for u in urbs]
        best = urbs[int(np.argmin(values))]
        best_urbs.append(best)
        table.add_row(key, *values, best)
    if len(set(best_urbs)) > 1:
        table.add_note(
            "the optimal fixed unroll factor differs across datasets "
            f"({sorted(set(best_urbs))}) — no static choice fits all, "
            "motivating dynamic reconfiguration"
        )
    return table
