"""Tests for the energy model extension."""

import numpy as np
import pytest

from repro import Acamar
from repro.datasets import dataset_keys, load_problem, poisson_2d
from repro.experiments import runner
from repro.fpga import PerformanceModel
from repro.fpga.energy import (
    CSR_BYTES_PER_NNZ,
    HBM_ENERGY_PER_BYTE_J,
    ICAP_POWER_W,
    LEAKAGE_W_PER_MM2,
    MAC_ENERGY_J,
    EnergyModel,
    EnergyReport,
    FleetEnergyReport,
)


@pytest.fixture
def solved():
    problem = poisson_2d(24)
    result = Acamar().solve(problem.matrix, problem.b)
    model = PerformanceModel()
    latency = model.acamar_latency(problem.matrix, result)
    area = model.acamar_spmv_area_mm2(problem.matrix, result.plan)
    return problem, result, model, latency, area


class TestEnergyReport:
    def test_total_sums_components(self):
        report = EnergyReport(1.0, 2.0, 3.0, 4.0)
        assert report.total_j == 10.0

    def test_edp(self):
        report = EnergyReport(1.0, 0.0, 0.0, 0.0)
        assert report.energy_delay_product(2.0) == 2.0


class TestEnergyModel:
    def test_components_positive_for_real_solve(self, solved):
        problem, result, model, latency, area = solved
        energy = EnergyModel().acamar(latency, area)
        assert energy.dynamic_compute_j > 0
        assert energy.static_leakage_j > 0
        assert energy.memory_j > 0
        assert energy.total_j > 0

    def test_static_leakage_scales_with_area(self, solved):
        problem, result, model, latency, area = solved
        energy_model = EnergyModel()
        small = energy_model.static_design(latency.final, urb=2)
        large = energy_model.static_design(latency.final, urb=64)
        assert large.static_leakage_j > small.static_leakage_j

    def test_acamar_leaks_less_than_wide_static(self, solved):
        """The energy corollary of Figure 10's area saving."""
        problem, result, model, latency, area = solved
        energy_model = EnergyModel()
        static_urb = 16
        static_latency = model.solver_latency(
            problem.matrix, result.final, urb=static_urb
        )
        acamar_energy = energy_model.acamar(latency, area)
        static_energy = energy_model.static_design(static_latency, static_urb)
        leak_per_second_acamar = acamar_energy.static_leakage_j / max(
            latency.compute_seconds, 1e-12
        )
        leak_per_second_static = static_energy.static_leakage_j / max(
            static_latency.compute_seconds, 1e-12
        )
        if area < model.static_spmv_area_mm2(static_urb):
            assert leak_per_second_acamar < leak_per_second_static

    def test_reconfig_energy_tracks_icap_time(self, solved):
        problem, result, model, latency, area = solved
        energy = EnergyModel().acamar(latency, area)
        expected = ICAP_POWER_W * sum(
            a.reconfig_seconds for a in latency.attempts
        )
        assert energy.reconfig_j == pytest.approx(expected)

    def test_dynamic_energy_identical_for_same_work(self, solved):
        """Same solver run: dynamic (switching) energy is architecture-
        independent; only leakage and reconfiguration differ."""
        problem, result, model, latency, area = solved
        energy_model = EnergyModel()
        static_latency = model.solver_latency(
            problem.matrix, result.final, urb=8
        )
        acamar_energy = energy_model.acamar(latency.final, area)
        static_energy = energy_model.static_design(static_latency, 8)
        assert acamar_energy.dynamic_compute_j == pytest.approx(
            static_energy.dynamic_compute_j
        )

    def test_full_acamar_report_on_dataset(self):
        problem = load_problem("Wi")
        result = Acamar().solve(problem.matrix, problem.b)
        model = PerformanceModel()
        latency = model.acamar_latency(problem.matrix, result)
        area = model.acamar_spmv_area_mm2(problem.matrix, result.plan)
        energy = EnergyModel().acamar(latency, area)
        assert 0 < energy.total_j < 1.0  # sane magnitude for a ms-scale solve

    def test_compute_energy_near_parity_on_the_stand_ins(self):
        """Ablation A4: static URB=16 over Acamar compute energy (leakage,
        switching and memory; reconfiguration is Figure 13's budget).
        Switching and memory are work-determined, so the ratio sits near
        1: the win of dynamic sizing is Figure 10's freed fabric."""
        model = runner.performance_model()
        energy_model = EnergyModel(model.device)
        static_urb = 16
        ratios = []
        for key in dataset_keys():
            matrix = runner.problem(key).matrix
            result = runner.acamar_result(key)
            acamar = energy_model.acamar(
                model.solver_latency(matrix, result.final, plan=result.plan),
                model.acamar_spmv_area_mm2(matrix, result.plan),
            )
            static = energy_model.static_design(
                model.solver_latency(matrix, result.final, urb=static_urb),
                static_urb,
            )
            ratios.append(static.total_j / (acamar.total_j - acamar.reconfig_j))
        assert all(r > 0 for r in ratios)
        assert np.exp(np.mean(np.log(ratios))) > 0.9


class TestFleetEnergy:
    def fleet_report(self, **overrides):
        fields = dict(
            modeled_flops=2e9,
            slot_area_mm2=0.02,
            provisioned_slot_seconds=16.0,
            provisioned_fleet_seconds=8.0,
            config_loads=10,
            config_load_seconds=1e-3,
        )
        fields.update(overrides)
        return EnergyModel().fleet(**fields)

    def test_components_follow_the_constants(self):
        report = self.fleet_report()
        mac_ops = 1e9  # 2 FLOPs per MAC-op
        assert report.dynamic_compute_j == pytest.approx(
            mac_ops * MAC_ENERGY_J
        )
        assert report.memory_j == pytest.approx(
            mac_ops * CSR_BYTES_PER_NNZ * HBM_ENERGY_PER_BYTE_J
        )
        assert report.reconfig_j == pytest.approx(
            ICAP_POWER_W * 10 * 1e-3
        )
        device = EnergyModel().device
        assert report.static_leakage_j == pytest.approx(
            LEAKAGE_W_PER_MM2
            * (16.0 * 0.02 + 8.0 * device.fixed_area_mm2)
        )

    def test_total_and_efficiency(self):
        report = self.fleet_report()
        assert report.total_j == pytest.approx(
            report.dynamic_compute_j + report.static_leakage_j
            + report.memory_j + report.reconfig_j
        )
        assert report.gflops_per_watt == pytest.approx(
            report.modeled_flops / report.total_j / 1e9
        )

    def test_idle_fabric_still_leaks(self):
        """Provisioned-but-idle slots cost leakage: the serving-tier
        face of the underutilization argument."""
        busy = self.fleet_report()
        overprovisioned = self.fleet_report(
            provisioned_slot_seconds=64.0, provisioned_fleet_seconds=32.0
        )
        assert (
            overprovisioned.static_leakage_j > busy.static_leakage_j
        )
        assert (
            overprovisioned.gflops_per_watt < busy.gflops_per_watt
        )

    def test_zero_energy_guards_efficiency(self):
        report = FleetEnergyReport(0.0, 0.0, 0.0, 0.0, 0.0)
        assert report.gflops_per_watt == 0.0

    def test_as_dict_includes_efficiency(self):
        doc = self.fleet_report().as_dict()
        assert set(doc) == {
            "modeled_flops", "dynamic_compute_j", "static_leakage_j",
            "memory_j", "reconfig_j", "total_j", "gflops_per_watt",
        }
