"""FPGA device description (Xilinx Alveo u55c class).

The paper implements Acamar in Vitis HLS on an Alveo u55c (Virtex
UltraScale+ fabric) and extends its design-space exploration with a
cycle-level simulator fed by HLS co-simulation numbers.  This module is the
device side of that simulator: clock, MAC resource budget, per-MAC fabric
area, ICAP bandwidth.  The constants are calibrated to land the derived
metrics in the paper's reported ranges (e.g. ~720 GFLOPS/mm² performance
efficiency) rather than to match any proprietary die measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FPGADevice:
    """Parameters of the modeled FPGA fabric.

    Attributes
    ----------
    name:
        Human-readable device name.
    clock_hz:
        Kernel clock of the HLS design.
    dsp_total:
        DSP slices available on the fabric.
    dsp_per_mac:
        DSP slices consumed by one fp32 multiply-accumulate unit.
    mac_area_mm2:
        Fabric area occupied by one MAC unit plus its share of routing.
    fixed_area_mm2:
        Area of the static region (control, dense units, memory interface)
        present in both Acamar and the static baseline.
    icap_bandwidth_bps:
        Partial-bitstream transfer rate of the ICAP core (paper: 6.4 Gb/s
        at 200 MHz).
    pipeline_fill_cycles:
        Pipeline fill/drain overhead charged once per kernel sweep.
    dense_unroll:
        Fixed unroll factor of the optimized static dense kernels.
    """

    name: str = "alveo-u55c"
    clock_hz: float = 300e6
    dsp_total: int = 9024
    dsp_per_mac: int = 5
    mac_area_mm2: float = 6.0e-4
    fixed_area_mm2: float = 0.05
    icap_bandwidth_bps: float = 6.4e9
    pipeline_fill_cycles: int = 12
    dense_unroll: int = 16

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError(f"clock_hz must be > 0, got {self.clock_hz}")
        if self.dsp_per_mac < 1 or self.dsp_total < self.dsp_per_mac:
            raise ConfigurationError("inconsistent DSP budget")
        if self.icap_bandwidth_bps <= 0:
            raise ConfigurationError("icap_bandwidth_bps must be > 0")
        if self.dense_unroll < 1:
            raise ConfigurationError("dense_unroll must be >= 1")

    @property
    def max_macs(self) -> int:
        """Largest MAC count the DSP budget can provision."""
        return self.dsp_total // self.dsp_per_mac

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert kernel cycles to wall-clock seconds."""
        return float(cycles) / self.clock_hz

    def spmv_region_area_mm2(self, unroll: int) -> float:
        """Fabric area of a Dynamic-SpMV region provisioned for ``unroll``."""
        return unroll * self.mac_area_mm2


ALVEO_U55C = FPGADevice()
"""Default device instance used throughout the experiments."""
