"""Figure 12: resource underutilization vs sampling rate.

A larger ``SamplingRate`` means smaller row sets, finer unroll matching,
lower Eq. 5 underutilization — but more reconfiguration events.  The
sweep reproduces the paper's decreasing curves and its choice of 32 as
the latency/utilization compromise.
"""

from __future__ import annotations

import numpy as np

from repro.config import AcamarConfig
from repro.core import FineGrainedReconfigurationUnit
from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import mean_underutilization

SAMPLING_SWEEP = (4, 8, 16, 32, 64, 128, 256)


def underutilization_for(key: str, rates: tuple[int, ...]) -> list[float]:
    """Post-MSID Eq. 5 underutilization per sampling rate."""
    matrix = runner.problem(key).matrix
    lengths = matrix.row_lengths()
    values = []
    for rate in rates:
        plan = FineGrainedReconfigurationUnit(
            AcamarConfig(sampling_rate=rate)
        ).plan(matrix)
        values.append(mean_underutilization(lengths, plan.unroll_for_rows))
    return values


def run(
    keys: tuple[str, ...] | None = None,
    rates: tuple[int, ...] = SAMPLING_SWEEP,
) -> ExperimentTable:
    """Underutilization per (dataset, sampling rate) plus the mean row."""
    table = ExperimentTable(
        experiment_id="Figure 12",
        title="Resource underutilization for different sampling rates",
        headers=("ID", *[f"S={r}" for r in rates]),
    )
    rows = []
    for key in runner.resolve_keys(keys):
        values = underutilization_for(key, rates)
        rows.append(values)
        table.add_row(key, *values)
    means = np.asarray(rows).mean(axis=0)
    table.add_row("MEAN", *means.tolist())
    table.add_note(
        "underutilization decreases with sampling rate "
        f"(mean {means[0]:.2f} at S={rates[0]} -> {means[-1]:.2f} at "
        f"S={rates[-1]}); the paper fixes S=32 to bound reconfiguration cost"
    )
    return table
