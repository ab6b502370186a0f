"""End-to-end integration: numerics, decisions and cost models together."""

import numpy as np
import pytest

from repro import Acamar, AcamarConfig
from repro.baselines import StaticDesign
from repro.datasets import (
    convection_diffusion_2d,
    grounded_laplacian_system,
    load_problem,
    normal_equations_system,
    poisson_2d,
    poisson_3d,
)
from repro.fpga import (
    PerformanceModel,
    SpMVPipelineSimulator,
    mean_underutilization,
)
from repro.gpu import CuSparseSpMVModel
from repro.metrics import achieved_throughput_fraction, latency_speedup


class TestFullStackOnWorkloads:
    """Solve + cost every Section II-A workload stream."""

    @pytest.fixture(
        params=[
            lambda: poisson_2d(24),
            lambda: poisson_3d(8),
            lambda: convection_diffusion_2d(20, peclet=8.0),
            lambda: grounded_laplacian_system(400, seed=2),
            lambda: normal_equations_system(1500, 400, seed=3),
        ],
        ids=["poisson2d", "poisson3d", "convdiff", "laplacian", "ridge"],
    )
    def problem(self, request):
        return request.param()

    def test_solve_and_cost(self, problem):
        acamar = Acamar()
        result = acamar.solve(problem.matrix, problem.b)
        assert result.converged
        assert problem.residual_norm(result.x) < 1e-3

        model = PerformanceModel()
        latency = model.acamar_latency(problem.matrix, result)
        assert latency.compute_seconds > 0

        throughput = achieved_throughput_fraction(
            latency.final.spmv_report, latency.final.loop_sweeps, model.device
        )
        assert 0.0 < throughput <= 1.0

        gpu = CuSparseSpMVModel().sweep(problem.matrix)
        assert gpu.seconds > 0


class TestCrossModelConsistency:
    def test_pipeline_and_analytic_agree_end_to_end(self):
        problem = load_problem("Qa")
        acamar = Acamar()
        result = acamar.solve(problem.matrix, problem.b)
        model = PerformanceModel()
        from repro.fpga.cost_model import operator_row_lengths

        lengths = operator_row_lengths(problem.matrix, result.final.solver)
        simulator = SpMVPipelineSimulator(model.device)
        pipeline_c, analytic_c = simulator.validate_against_analytic(
            lengths, result.plan
        )
        assert pipeline_c == pytest.approx(analytic_c, rel=0.05)

    def test_acamar_beats_static_where_paper_says(self):
        """At URB=1 and URB=2 the speedup must be decisively above 1."""
        problem = load_problem("Wi")
        acamar_result = Acamar().solve(problem.matrix, problem.b)
        model = PerformanceModel()
        acamar_latency = model.acamar_latency(problem.matrix, acamar_result)
        for urb in (1, 2):
            static_latency = model.solver_latency(
                problem.matrix, acamar_result.final, urb=urb
            )
            assert (
                latency_speedup(
                    static_latency.compute_seconds,
                    acamar_latency.compute_seconds,
                )
                > 2.0
            )

    def test_acamar_ru_beats_wide_static_everywhere(self):
        for key in ("2C", "Wi", "Fe", "Bc", "If"):
            problem = load_problem(key)
            plan = Acamar().plan(problem.matrix)
            lengths = problem.matrix.row_lengths()
            acamar_ru = mean_underutilization(lengths, plan.unroll_for_rows)
            static_ru = mean_underutilization(lengths, 64)
            assert acamar_ru < static_ru, key

    def test_shared_config_keeps_numerics_identical(self):
        """Baseline and Acamar with the same solver produce the same
        iterates — the architecture only changes the cost model."""
        problem = load_problem("Po")
        config = AcamarConfig()
        acamar_result = Acamar(config).solve(problem.matrix, problem.b)
        solver_name = acamar_result.final.solver
        static_result = StaticDesign(solver_name, 8, config).solve(
            problem.matrix, problem.b
        )
        assert static_result.iterations == acamar_result.final.iterations
        np.testing.assert_array_equal(static_result.x, acamar_result.x)


class TestPrecisionModes:
    def test_float64_full_stack(self):
        problem = poisson_2d(16)
        config = AcamarConfig(dtype=np.float64, tolerance=1e-10)
        result = Acamar(config).solve(problem.matrix, problem.b)
        assert result.converged
        assert problem.residual_norm(result.x) < 1e-8

    def test_loose_tolerance_converges_faster(self):
        problem = poisson_2d(20)
        tight = Acamar(AcamarConfig(tolerance=1e-6)).solve(
            problem.matrix, problem.b
        )
        loose = Acamar(AcamarConfig(tolerance=1e-2)).solve(
            problem.matrix, problem.b
        )
        assert loose.final.iterations < tight.final.iterations
