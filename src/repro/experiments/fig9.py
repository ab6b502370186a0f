"""Figure 9: achieved compute throughput as a percentage of peak.

Top panel: Acamar vs the static design (fixed ``SpMV_URB``).  Bottom
panel: Acamar vs the GPU.  Peak is what the provisioned compute units
could retire; achieved counts useful MAC work.  The paper reports Acamar
averaging ~70 % (up to 83 %) while the GPU achieves a few percent of its
4.4 TFLOPS peak on SpMV.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.metrics import achieved_throughput_fraction

STATIC_URB = 16
"""Fixed unroll of the static design in the top panel's comparison."""


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Achieved-throughput fraction per dataset for all three designs."""
    model = runner.performance_model()
    gpu = runner.gpu_model()
    table = ExperimentTable(
        experiment_id="Figure 9",
        title="Achieved throughput as fraction of peak (higher is better)",
        headers=("ID", "acamar", f"static URB={STATIC_URB}", "gpu"),
    )
    acamar_vals, static_vals, gpu_vals = [], [], []
    for key in runner.resolve_keys(keys):
        prob = runner.problem(key)
        acamar = runner.acamar_result(key)
        acamar_lat = model.solver_latency(prob.matrix, acamar.final, plan=acamar.plan)
        static_lat = model.solver_latency(prob.matrix, acamar.final, urb=STATIC_URB)
        acamar_frac = achieved_throughput_fraction(
            acamar_lat.spmv_report, acamar_lat.loop_sweeps, model.device
        )
        static_frac = achieved_throughput_fraction(
            static_lat.spmv_report, static_lat.loop_sweeps, model.device
        )
        gpu_frac = gpu.sweep(prob.matrix).achieved_fraction
        acamar_vals.append(acamar_frac)
        static_vals.append(static_frac)
        gpu_vals.append(gpu_frac)
        table.add_row(key, acamar_frac, static_frac, gpu_frac)
    table.add_row(
        "MEAN",
        float(np.mean(acamar_vals)),
        float(np.mean(static_vals)),
        float(np.mean(gpu_vals)),
    )
    table.add_note(
        f"Acamar mean {np.mean(acamar_vals):.0%}, max {max(acamar_vals):.0%} "
        "(paper: ~70% mean, up to 83%); GPU mean "
        f"{np.mean(gpu_vals):.2%} of its fp32 peak (memory-bound)"
    )
    return table
