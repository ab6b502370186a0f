"""Device classes a serving fleet can tenant, and their cost terms.

Each name below is one kind of tenancy, with the charge its scheduler
pays when a batch lands on a slot whose resident structure differs:

- ``fpga`` — a Reconfigurable Solver instance; residency misses pay an
  ICAP configuration load (:mod:`repro.fpga.cost_model`),
- ``gpu`` — a fixed-function cuSPARSE tenant (an MPS-style partition of
  the modeled GTX 1650 Super); residency misses pay a PCIe structure
  upload, never a reconfiguration,
- ``cpu-assist`` — not a dispatch target: a host-side helper tier that
  absorbs the cold-batch structure analysis so the accelerator slot
  only pays a round-trip handoff.

The constants below are the GPU/CPU cost-model terms the FPGA side has
no analogue for; the FPGA terms live with the FPGA cost model.
"""

from __future__ import annotations

FPGA = "fpga"
GPU = "gpu"
CPU_ASSIST = "cpu-assist"

GPU_KERNEL_LAUNCH_SECONDS = 5e-6
"""Host-side launch latency charged per solver iteration on the GPU
tenant (one SpMV kernel launch per iteration; the vector-op kernels of
an iteration are fused into the same stream and hide behind it)."""

PCIE_BANDWIDTH_BPS = 12e9
"""Sustained host→device PCIe 3.0 x16 bandwidth for the CSR structure
upload a GPU residency miss pays (~12 GB/s of the 15.75 GB/s raw)."""

GPU_TENANT_AREA_MM2 = 71.0
"""Silicon area one GPU tenant occupies for the DSE pricing model: a
quarter-GPU MPS partition of the TU116 die (284 mm² / 4).  Comparable
currency to the FPGA's per-slot region area, so ``fabric_mm2_seconds``
prices mixed fleets on one axis."""

GPU_TENANT_FRACTION = 0.25
"""Fraction of the modeled GPU one tenant owns (an MPS quarter
partition: a quarter of the SMs and, for the bandwidth-bound SpMV, a
quarter of the sustained DRAM bandwidth).  Matches
:data:`GPU_TENANT_AREA_MM2`'s quarter-die pricing so the DSE cost and
the performance model describe the same partition."""

CPU_ASSIST_ROUNDTRIP_SECONDS = 20e-6
"""Host round-trip charged per cold batch when the CPU-assist tier
absorbs the structure analysis: the slot hands the matrix off, the host
runs the Eq. 1 sums concurrently with the transfer, and the slot pays
only this fixed handoff instead of the NNZ-proportional analysis."""
