"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(keys=None, ...) -> ExperimentTable`` (keys are
Table II dataset IDs; ``None`` means all 25); ``repro experiment <id>``
prints the regenerated table.  The mapping to the paper:

========  =====================================================
module    paper artifact
========  =====================================================
table1    Table I   — convergence criteria catalog
table2    Table II  — per-solver ✓/✗ + Acamar robust convergence
fig1      Figure 1  — SpMV share of solver latency
fig2      Figure 2  — baseline underutilization vs unroll factor
fig5      Figure 5  — reconfiguration rate vs MSID stages
fig6      Figure 6  — latency speedup over the static design
fig7      Figure 7  — underutilization improvement ratio
fig8      Figure 8  — underutilization vs the GPU
fig9      Figure 9  — achieved throughput fraction
fig10     Figure 10 — performance efficiency (GFLOPS/mm²)
fig11     Figure 11 — MSID-stage effect on R.U. and latency
fig12     Figure 12 — underutilization vs sampling rate
fig13     Figure 13 — allowed reconfiguration time budget
========  =====================================================

Figures 3/4 are architecture diagrams (implemented as :mod:`repro.core`
itself; Figure 4's worked example is a unit test).  ``ext_coverage`` is
an extension artifact: Table II re-run over the full solver registry.
"""

from repro.experiments import (  # noqa: F401
    extended_coverage,
    fig1,
    fig10,
    fig11,
    fig12,
    fig13,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    kernel_mix,
    precision_study,
    table1,
    table2,
)
from repro.experiments.report import ExperimentTable, format_table

ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig1": fig1,
    "fig2": fig2,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "ext_coverage": extended_coverage,
    "ext_kernel_mix": kernel_mix,
    "ext_precision": precision_study,
}
"""Experiment id → module, in the paper's presentation order."""

__all__ = ["ALL_EXPERIMENTS", "ExperimentTable", "format_table"]
