"""Figure 10: performance efficiency (GFLOPS per mm² of SpMV fabric).

The static design permanently occupies a region sized for its fixed
unroll; Acamar's dynamically reconfigured region only occupies what the
current configuration needs (time-weighted), freeing fabric for a
co-running kernel.  The paper reports Acamar averaging ~720 GFLOPS/mm²
and ~2× the static design's area efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.metrics import area_saving_ratio, gflops_per_mm2

STATIC_URB = 16
"""Fixed unroll of the static design in this figure's comparison."""


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Performance efficiency per dataset for both designs."""
    model = runner.performance_model()
    table = ExperimentTable(
        experiment_id="Figure 10",
        title="Performance efficiency, GFLOPS/mm^2 (higher is better)",
        headers=(
            "ID", "acamar", f"static URB={STATIC_URB}",
            "acamar_area_mm2", "static_area_mm2", "area_saving",
        ),
    )
    acamar_eff, static_eff, savings = [], [], []
    for key in runner.resolve_keys(keys):
        prob = runner.problem(key)
        acamar = runner.acamar_result(key)
        acamar_lat = model.solver_latency(prob.matrix, acamar.final, plan=acamar.plan)
        static_lat = model.solver_latency(prob.matrix, acamar.final, urb=STATIC_URB)
        acamar_area = model.acamar_spmv_area_mm2(prob.matrix, acamar.plan)
        static_area = model.static_spmv_area_mm2(STATIC_URB)
        a_eff = gflops_per_mm2(acamar_lat.spmv_report, acamar_area, model.device)
        s_eff = gflops_per_mm2(static_lat.spmv_report, static_area, model.device)
        saving = area_saving_ratio(static_area, acamar_area)
        acamar_eff.append(a_eff)
        static_eff.append(s_eff)
        savings.append(saving)
        table.add_row(key, a_eff, s_eff, acamar_area, static_area, saving)
    table.add_row(
        "MEAN",
        float(np.mean(acamar_eff)),
        float(np.mean(static_eff)),
        "",
        "",
        float(np.mean(savings)),
    )
    table.add_note(
        f"Acamar mean {np.mean(acamar_eff):.0f} GFLOPS/mm^2 (paper: ~720); "
        f"mean area saving {np.mean(savings):.2f}x (paper: ~2x)"
    )
    return table
