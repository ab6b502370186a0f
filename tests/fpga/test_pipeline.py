"""Tests for the event-driven SpMV pipeline simulator."""

import numpy as np
import pytest

from repro import AcamarConfig
from repro.core import FineGrainedReconfigurationUnit
from repro.datasets import dataset_keys
from repro.datasets.generators import sdd_matrix
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.fpga import ALVEO_U55C, SpMVPipelineSimulator
from repro.fpga.cost_model import operator_row_lengths
from repro.fpga.pipeline import MAC_LATENCY_CYCLES, _tree_latency


@pytest.fixture
def simulator():
    return SpMVPipelineSimulator(ALVEO_U55C)


@pytest.fixture
def planned_matrix():
    matrix = sdd_matrix(512, 8.0, seed=42)
    plan = FineGrainedReconfigurationUnit(AcamarConfig()).plan(matrix)
    return matrix, plan


class TestAgreementWithAnalyticModel:
    @pytest.mark.parametrize("key", dataset_keys())
    def test_cycles_match_within_drain_tail(self, simulator, key):
        """Validation V1: the sweep of each stand-in's converging solver
        under its Acamar plan, timed by both independent models."""
        matrix = runner.problem(key).matrix
        result = runner.acamar_result(key)
        lengths = operator_row_lengths(matrix, result.final.solver)
        pipeline_c, analytic_c = simulator.validate_against_analytic(
            lengths, result.plan
        )
        # The two models may differ only by the pipeline's drain tail.
        assert abs(pipeline_c - analytic_c) < 80
        assert pipeline_c / analytic_c == pytest.approx(1.0, abs=0.05)
        trace = SpMVPipelineSimulator(
            ALVEO_U55C, include_reconfiguration=False
        ).simulate(lengths, result.plan)
        assert 0.0 < trace.occupancy <= 1.0

    def test_busy_and_provisioned_identical_to_analytic(
        self, simulator, planned_matrix
    ):
        from repro.fpga.kernels import spmv_sweep

        matrix, plan = planned_matrix
        trace = SpMVPipelineSimulator(
            ALVEO_U55C, include_reconfiguration=False
        ).simulate(matrix.row_lengths(), plan)
        analytic = spmv_sweep(matrix.row_lengths(), plan.unroll_for_rows, ALVEO_U55C)
        assert trace.busy_mac_cycles == analytic.busy_mac_cycles
        assert trace.provisioned_mac_cycles == analytic.provisioned_mac_cycles


class TestPipelineMechanics:
    def test_single_row_latency(self):
        """One row of U nnz: 1 issue + tree latency."""
        from repro.core.finegrained import ReconfigurationPlan, RowSetPlan
        from repro.core.msid import MSIDChain

        msid = MSIDChain(0, 0.0).optimize(np.array([4.0]))
        plan = ReconfigurationPlan(
            sets=(RowSetPlan(0, 1, 4, False),),
            msid=msid,
            raw_unrolls=np.array([4]),
            final_unrolls=np.array([4]),
        )
        trace = SpMVPipelineSimulator(
            ALVEO_U55C, include_reconfiguration=False
        ).simulate(np.array([4]), plan)
        assert trace.total_cycles == _tree_latency(4) + 1

    def test_reconfiguration_adds_drain_and_load(self, planned_matrix):
        matrix, plan = planned_matrix
        with_reconfig = SpMVPipelineSimulator(ALVEO_U55C).simulate(
            matrix.row_lengths(), plan
        )
        without = SpMVPipelineSimulator(
            ALVEO_U55C, include_reconfiguration=False
        ).simulate(matrix.row_lengths(), plan)
        if plan.reconfiguration_count:
            assert with_reconfig.reconfig_stall_cycles > 0
            assert with_reconfig.total_cycles > without.total_cycles
        assert without.reconfig_stall_cycles == 0

    def test_occupancy_in_unit_interval(self, simulator, planned_matrix):
        matrix, plan = planned_matrix
        trace = simulator.simulate(matrix.row_lengths(), plan)
        assert 0.0 < trace.occupancy <= 1.0

    def test_set_traces_cover_plan(self, simulator, planned_matrix):
        matrix, plan = planned_matrix
        trace = simulator.simulate(matrix.row_lengths(), plan)
        assert len(trace.sets) == len(plan.sets)
        assert trace.sets[0].start_row == 0
        assert trace.sets[-1].stop_row == matrix.n_rows

    def test_row_count_mismatch_rejected(self, simulator, planned_matrix):
        matrix, plan = planned_matrix
        with pytest.raises(ConfigurationError, match="rows"):
            simulator.simulate(np.ones(10, dtype=np.int64), plan)

    def test_tree_latency_grows_with_unroll(self):
        assert _tree_latency(64) > _tree_latency(4) >= MAC_LATENCY_CYCLES + 2

    def test_writeback_conflicts_counted_for_burst_of_short_rows(self):
        """Many 1-chunk rows finish 1/cycle — exactly the port rate, so
        no conflicts; rows finishing simultaneously would conflict."""
        from repro.core.finegrained import ReconfigurationPlan, RowSetPlan
        from repro.core.msid import MSIDChain

        lengths = np.full(32, 4, dtype=np.int64)
        msid = MSIDChain(0, 0.0).optimize(np.array([4.0]))
        plan = ReconfigurationPlan(
            sets=(RowSetPlan(0, 32, 4, False),),
            msid=msid,
            raw_unrolls=np.array([4]),
            final_unrolls=np.array([4]),
        )
        trace = SpMVPipelineSimulator(
            ALVEO_U55C, include_reconfiguration=False
        ).simulate(lengths, plan)
        assert trace.writeback_conflict_cycles == 0
