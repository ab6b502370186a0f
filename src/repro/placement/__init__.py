"""Heterogeneous placement: FPGA slots, GPU tenants, CPU assist.

The paper's Solver Decision loop picks a *solver* per structural class;
this package widens that into a *placement* decision: a serving fleet
may mix reconfigurable FPGA slots with fixed-function GPU tenants (and
an optional CPU-assist tier for host-side analysis offload), and the
scheduler chooses a device class per micro-batch from two cost models —

- the FPGA side prices warm batches at the cost model's final-attempt
  compute plus an ICAP configuration load on residency misses
  (:mod:`repro.fpga.cost_model`),
- the GPU side prices warm batches from the cuSPARSE SpMV roofline
  (:mod:`repro.gpu.cusparse_model`) plus kernel-launch latency, with a
  PCIe structure upload instead of a reconfiguration charge.

Everything here is a pure function of the solve profile, so placement
decisions are computed once per source and are byte-deterministic
across runs, machines and ``--workers`` counts.
"""

from repro.placement.decision import (
    RESIDENCY_AMORTIZATION_BATCHES,
    STRUCTURAL_CLASSES,
    PlacementDecision,
    decide_placement,
    placement_counts,
    placement_section,
    scenario_matrix,
    structural_class_of,
)
from repro.placement.device import (
    CPU_ASSIST,
    CPU_ASSIST_ROUNDTRIP_SECONDS,
    FPGA,
    GPU,
    GPU_KERNEL_LAUNCH_SECONDS,
    GPU_TENANT_AREA_MM2,
    GPU_TENANT_FRACTION,
    PCIE_BANDWIDTH_BPS,
)
from repro.placement.gpu_cost import (
    GPUServiceEstimate,
    estimate_gpu_service,
    tenant_partition,
)

__all__ = [
    "CPU_ASSIST",
    "CPU_ASSIST_ROUNDTRIP_SECONDS",
    "FPGA",
    "GPU",
    "GPU_KERNEL_LAUNCH_SECONDS",
    "GPU_TENANT_AREA_MM2",
    "GPU_TENANT_FRACTION",
    "GPUServiceEstimate",
    "PCIE_BANDWIDTH_BPS",
    "PlacementDecision",
    "RESIDENCY_AMORTIZATION_BATCHES",
    "STRUCTURAL_CLASSES",
    "decide_placement",
    "estimate_gpu_service",
    "placement_counts",
    "placement_section",
    "scenario_matrix",
    "structural_class_of",
    "tenant_partition",
]
