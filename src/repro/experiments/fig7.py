"""Figure 7: improvement ratio in SpMV resource underutilization.

Ratio of the static baseline's Eq. 5 underutilization to Acamar's, per
dataset and baseline unroll factor.  Acamar's per-row unroll assignment
comes from its reconfiguration plan (Row Length Trace + MSID chain).
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import mean_underutilization, underutilization_improvement_ratio

URB_SWEEP = (2, 4, 8, 16, 32, 64)


def improvement_ratios(key: str, urbs: tuple[int, ...]) -> list[float]:
    """Baseline-RU / Acamar-RU for each baseline unroll factor."""
    prob = runner.problem(key)
    plan = runner.acamar_result(key).plan
    lengths = prob.matrix.row_lengths()
    acamar_ru = mean_underutilization(lengths, plan.unroll_for_rows)
    return [
        underutilization_improvement_ratio(
            mean_underutilization(lengths, urb), acamar_ru
        )
        for urb in urbs
    ]


def run(
    keys: tuple[str, ...] | None = None,
    urbs: tuple[int, ...] = URB_SWEEP,
) -> ExperimentTable:
    """Improvement ratio per (dataset, baseline URB)."""
    table = ExperimentTable(
        experiment_id="Figure 7",
        title="Resource-underutilization improvement ratio (higher is better)",
        headers=("ID", *[f"URB={u}" for u in urbs]),
    )
    maxima = []
    for key in runner.resolve_keys(keys):
        values = improvement_ratios(key, urbs)
        maxima.append(max(values))
        table.add_row(key, *values)
    table.add_note(
        "improvement grows with the baseline's allocation (paper: up to 3x); "
        f"best observed ratio {max(maxima):.2f}x"
    )
    return table
