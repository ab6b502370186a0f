"""Figure 8: resource underutilization — Acamar vs the GPU (lower is better).

Acamar's underutilization uses Eq. 5 under its reconfiguration plan; the
GPU's is the warp-per-row idle-lane fraction of the cuSPARSE CSR kernel.
The paper's averages: Acamar ~50 %, GPU ~81 %.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import mean_underutilization


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Underutilization per dataset for both architectures."""
    gpu = runner.gpu_model()
    table = ExperimentTable(
        experiment_id="Figure 8",
        title="Resource underutilization: Acamar vs Nvidia GTX 1650 Super",
        headers=("ID", "acamar_ru", "gpu_ru"),
    )
    acamar_values, gpu_values = [], []
    for key in runner.resolve_keys(keys):
        prob = runner.problem(key)
        plan = runner.acamar_result(key).plan
        lengths = prob.matrix.row_lengths()
        acamar_ru = mean_underutilization(lengths, plan.unroll_for_rows)
        gpu_ru = gpu.sweep_from_row_lengths(lengths).underutilization
        acamar_values.append(acamar_ru)
        gpu_values.append(gpu_ru)
        table.add_row(key, acamar_ru, gpu_ru)
    table.add_row("MEAN", float(np.mean(acamar_values)), float(np.mean(gpu_values)))
    table.add_note(
        f"averages: Acamar {np.mean(acamar_values):.0%} vs GPU "
        f"{np.mean(gpu_values):.0%} (paper: 50% vs 81%)"
    )
    return table
