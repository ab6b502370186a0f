"""Figure 11: effect of MSID chain stages on R.U. and SpMV latency.

Sweeps ``rOpt`` and reports, per dataset, the post-optimization Eq. 5
underutilization and the change in one SpMV sweep's latency relative to
the unoptimized (``rOpt = 0``) plan.  The paper's finding: both stay
nearly constant — the MSID chain trades reconfiguration *events* away
without tilting the latency/utilization balance.
"""

from __future__ import annotations

from repro.config import AcamarConfig
from repro.core import FineGrainedReconfigurationUnit
from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import mean_underutilization

ROPT_SWEEP = (0, 2, 4, 8, 12)


def msid_effect(key: str, ropts: tuple[int, ...]) -> list[tuple[float, float]]:
    """(R.U., latency-vs-rOpt0 ratio) of one SpMV sweep per rOpt value."""
    model = runner.performance_model()
    matrix = runner.problem(key).matrix
    lengths = matrix.row_lengths()
    results = []
    base_cycles: float | None = None
    for r_opt in ropts:
        plan = FineGrainedReconfigurationUnit(AcamarConfig(r_opt=r_opt)).plan(matrix)
        sweep = model.spmv_unit_sweep(lengths, plan.unroll_for_rows)
        if base_cycles is None:
            base_cycles = sweep.cycles
        ru = mean_underutilization(lengths, plan.unroll_for_rows)
        results.append((ru, sweep.cycles / base_cycles))
    return results


def run(
    keys: tuple[str, ...] | None = None,
    ropts: tuple[int, ...] = ROPT_SWEEP,
) -> ExperimentTable:
    """R.U. and relative SpMV latency per (dataset, rOpt)."""
    headers: list[str] = ["ID"]
    for r_opt in ropts:
        headers += [f"RU@r{r_opt}", f"lat@r{r_opt}"]
    table = ExperimentTable(
        experiment_id="Figure 11",
        title="Resource underutilization and SpMV latency vs MSID stages",
        headers=tuple(headers),
    )
    max_lat_drift = 0.0
    for key in runner.resolve_keys(keys):
        cells: list[float] = []
        for ru, lat in msid_effect(key, ropts):
            cells += [ru, lat]
            max_lat_drift = max(max_lat_drift, abs(lat - 1.0))
        table.add_row(key, *cells)
    table.add_note(
        f"largest SpMV-latency drift across the rOpt sweep: "
        f"{max_lat_drift:.1%} — the MSID chain leaves the "
        "latency/utilization balance essentially unchanged (paper Fig. 11)"
    )
    return table
