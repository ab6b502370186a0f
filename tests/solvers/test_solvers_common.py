"""Behaviour every solver must share: contracts and shapes.

Exact per-solver op tallies live in ``test_kernel_spans.py``.
"""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.solvers import SOLVER_REGISTRY, JacobiSolver, make_solver
from repro.solvers.base import SolveStatus
from repro.sparse import CSRMatrix

ALL_SOLVER_NAMES = sorted(SOLVER_REGISTRY)


@pytest.fixture(params=ALL_SOLVER_NAMES)
def any_solver(request):
    return make_solver(request.param, max_iterations=300)


class TestRegistry:
    def test_registry_names_match_classes(self):
        for name, cls in SOLVER_REGISTRY.items():
            assert cls.name == name

    def test_make_solver_unknown_name(self):
        with pytest.raises(KeyError, match="unknown solver"):
            make_solver("not_a_solver")

    def test_make_solver_forwards_kwargs(self):
        solver = make_solver("cg", tolerance=1e-3, max_iterations=7)
        assert solver.tolerance == 1e-3
        assert solver.max_iterations == 7


class TestContracts:
    def test_solves_spd_system(self, any_solver, spd_system):
        matrix, b, x_true = spd_system
        result = any_solver.solve(matrix, b)
        assert result.converged, f"{any_solver.name} failed: {result.status}"
        error = np.linalg.norm(result.x - x_true) / np.linalg.norm(x_true)
        assert error < 1e-3

    def test_rejects_rectangular(self, any_solver):
        matrix = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeMismatchError, match="square"):
            any_solver.solve(matrix, np.ones(2))

    def test_rejects_bad_b_shape(self, any_solver, small_csr):
        with pytest.raises(ShapeMismatchError):
            any_solver.solve(small_csr, np.ones(7))

    def test_rejects_bad_x0_shape(self, any_solver, small_csr):
        with pytest.raises(ShapeMismatchError):
            any_solver.solve(small_csr, np.ones(4), x0=np.ones(6))

    def test_zero_rhs_converges_immediately(self, any_solver, small_csr):
        result = any_solver.solve(small_csr, np.zeros(4))
        assert result.converged
        np.testing.assert_allclose(result.x, 0.0, atol=1e-6)

    def test_empty_system_converges_in_one_iteration(self, any_solver):
        empty = CSRMatrix((0, 0), [0], [], [])
        result = any_solver.solve(empty, np.zeros(0))
        assert result.status is SolveStatus.CONVERGED
        assert result.iterations == 1
        assert result.x.shape == (0,)

    def test_warm_start_helps(self, any_solver, spd_system):
        matrix, b, x_true = spd_system
        cold = any_solver.solve(matrix, b)
        warm = any_solver.solve(matrix, b, x0=x_true.astype(np.float32))
        assert warm.iterations <= cold.iterations

    def test_result_dtype_matches_solver(self, any_solver, spd_system):
        matrix, b, _ = spd_system
        result = any_solver.solve(matrix, b)
        assert result.x.dtype == any_solver.dtype

    def test_float64_configuration(self, spd_system):
        matrix, b, _ = spd_system
        solver = make_solver("cg", dtype=np.float64)
        result = solver.solve(matrix, b)
        assert result.converged
        assert result.x.dtype == np.float64

    def test_residual_history_length_matches_iterations(
        self, any_solver, spd_system
    ):
        matrix, b, _ = spd_system
        result = any_solver.solve(matrix, b)
        assert len(result.residual_history) == result.iterations

    def test_final_residual_below_tolerance(self, any_solver, spd_system):
        matrix, b, _ = spd_system
        result = any_solver.solve(matrix, b)
        assert result.final_residual <= any_solver.tolerance

    def test_x0_not_mutated(self, any_solver, spd_system):
        matrix, b, _ = spd_system
        x0 = np.ones(matrix.shape[0], dtype=np.float32)
        x0_copy = x0.copy()
        any_solver.solve(matrix, b, x0=x0)
        np.testing.assert_array_equal(x0, x0_copy)


class TestOpAccounting:
    def test_ops_empty_before_any_iteration(self, small_csr):
        result = JacobiSolver().solve(small_csr, np.zeros(4))
        # zero rhs: converges after the first residual check
        assert result.ops.spmv_count() <= 1
