"""Tests for the FPGA kernel cycle models."""

import numpy as np
import pytest

from repro.fpga.device import ALVEO_U55C, FPGADevice
from repro.fpga.kernels import EMPTY_SWEEP, SweepReport, dense_kernel, spmv_sweep


@pytest.fixture
def device():
    return ALVEO_U55C


class TestSpMVSweep:
    def test_cycle_count_exact(self, device):
        lengths = np.array([8, 4, 12])
        report = spmv_sweep(lengths, 4, device)
        # ceil(8/4) + ceil(4/4) + ceil(12/4) = 2 + 1 + 3 = 6 slots + fill
        assert report.cycles == 6 + device.pipeline_fill_cycles

    def test_busy_and_provisioned(self, device):
        lengths = np.array([5, 3])
        report = spmv_sweep(lengths, 4, device)
        assert report.busy_mac_cycles == 8
        assert report.provisioned_mac_cycles == (2 + 1) * 4
        assert report.flops == 16.0

    def test_empty_row_occupies_one_slot(self, device):
        report = spmv_sweep(np.array([0, 4]), 4, device)
        assert report.cycles == 2 + device.pipeline_fill_cycles
        assert report.busy_mac_cycles == 4

    def test_per_row_unroll(self, device):
        lengths = np.array([8, 8])
        report = spmv_sweep(lengths, np.array([8, 2]), device)
        # 1 slot at U=8 + 4 slots at U=2
        assert report.cycles == 5 + device.pipeline_fill_cycles
        assert report.provisioned_mac_cycles == 8 + 8

    def test_larger_unroll_never_slower(self, device):
        lengths = np.array([7, 13, 2, 30, 1])
        cycles = [spmv_sweep(lengths, u, device).cycles for u in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_unroll_one_cycles_equal_nnz(self, device):
        lengths = np.array([3, 4, 5])
        report = spmv_sweep(lengths, 1, device)
        assert report.cycles == 12 + device.pipeline_fill_cycles
        assert report.occupancy == 1.0


class TestDenseKernel:
    def test_streaming_cycles(self, device):
        report = dense_kernel("axpy", 160, device)
        assert report.cycles == 10 + device.pipeline_fill_cycles
        assert report.flops == 320.0

    def test_reduction_tail(self, device):
        dot = dense_kernel("dot", 160, device)
        axpy = dense_kernel("axpy", 160, device)
        assert dot.cycles > axpy.cycles  # adder-tree drain

    def test_flops_per_kind(self, device):
        assert dense_kernel("scale", 100, device).flops == 100.0
        assert dense_kernel("vadd", 100, device).flops == 100.0
        assert dense_kernel("norm", 100, device).flops == 200.0

    def test_unknown_kind(self, device):
        with pytest.raises(KeyError):
            dense_kernel("conv2d", 10, device)

    def test_minimum_one_slot(self, device):
        report = dense_kernel("axpy", 1, device)
        assert report.cycles >= 1 + device.pipeline_fill_cycles


class TestSweepReport:
    def test_scaled(self):
        report = SweepReport(10.0, 5.0, 8.0, 12.0)
        tripled = report.scaled(3)
        assert tripled.cycles == 30.0
        assert tripled.busy_mac_cycles == 15.0
        assert tripled.flops == 36.0

    def test_combine(self):
        a = SweepReport(10.0, 5.0, 8.0, 12.0)
        b = SweepReport(1.0, 2.0, 3.0, 4.0)
        combo = SweepReport.combine([a, b])
        assert combo.cycles == 11.0
        assert combo.provisioned_mac_cycles == 11.0

    def test_occupancy(self):
        assert SweepReport(1, 3.0, 4.0, 0).occupancy == pytest.approx(0.75)
        assert EMPTY_SWEEP.occupancy == 1.0


class TestDevice:
    def test_defaults_are_consistent(self, device):
        assert device.max_macs == device.dsp_total // device.dsp_per_mac
        assert device.cycles_to_seconds(device.clock_hz) == pytest.approx(1.0)

    def test_area_scales_with_unroll(self, device):
        assert device.spmv_region_area_mm2(8) == pytest.approx(
            2 * device.spmv_region_area_mm2(4)
        )

    def test_invalid_configs_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FPGADevice(clock_hz=0)
        with pytest.raises(ConfigurationError):
            FPGADevice(dsp_per_mac=0)
        with pytest.raises(ConfigurationError):
            FPGADevice(icap_bandwidth_bps=-1)
        with pytest.raises(ConfigurationError):
            FPGADevice(dense_unroll=0)
