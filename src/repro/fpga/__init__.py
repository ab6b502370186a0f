"""Cycle-level FPGA cost model (Alveo u55c class).

Replaces the paper's HLS co-simulation + cycle-level simulator pair with a
single analytic model: kernel cycle accounting (:mod:`~repro.fpga.kernels`),
Eq. 5 resource-underutilization metrics (:mod:`~repro.fpga.utilization`),
ICAP partial-reconfiguration timing (:mod:`~repro.fpga.reconfiguration`),
and the solver-level :class:`~repro.fpga.cost_model.PerformanceModel`.
"""

from repro.fpga.cost_model import (
    AcamarLatencyReport,
    LatencyReport,
    PerformanceModel,
    expand_plan_to_rows,
    operator_row_lengths,
    plan_event_unrolls,
)
from repro.fpga.counters import PerfCounters, collect_counters
from repro.fpga.device import ALVEO_U55C, FPGADevice
from repro.fpga.energy import EnergyModel, EnergyReport
from repro.fpga.kernels import SweepReport, dense_kernel, spmv_sweep
from repro.fpga.multitenancy import FleetSpec
from repro.fpga.pipeline import (
    PipelineTrace,
    SetTrace,
    SpMVPipelineSimulator,
)
from repro.fpga.reconfiguration import (
    ReconfigurationModel,
    spmv_bitstream_bytes,
)
from repro.fpga.utilization import (
    mean_underutilization,
    occupancy_underutilization,
    row_underutilization,
    underutilization_improvement_ratio,
)

__all__ = [
    "ALVEO_U55C",
    "EnergyModel",
    "EnergyReport",
    "PerfCounters",
    "FleetSpec",
    "collect_counters",
    "PipelineTrace",
    "SetTrace",
    "SpMVPipelineSimulator",
    "AcamarLatencyReport",
    "FPGADevice",
    "LatencyReport",
    "PerformanceModel",
    "ReconfigurationModel",
    "SweepReport",
    "dense_kernel",
    "expand_plan_to_rows",
    "mean_underutilization",
    "occupancy_underutilization",
    "operator_row_lengths",
    "plan_event_unrolls",
    "row_underutilization",
    "spmv_bitstream_bytes",
    "spmv_sweep",
    "underutilization_improvement_ratio",
]
