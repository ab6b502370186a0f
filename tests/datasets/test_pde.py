"""Tests for the PDE discretization workloads."""

import numpy as np
import pytest

from repro.datasets.pde import (
    convection_diffusion_2d,
    convection_diffusion_2d_matrix,
    poisson_2d,
    poisson_2d_matrix,
    poisson_3d,
    poisson_3d_matrix,
)
from repro.errors import ConfigurationError
from repro.sparse.properties import is_symmetric, positive_definite_probe


class TestPoisson2D:
    def test_five_point_stencil_counts(self):
        matrix = poisson_2d_matrix(4, 4)
        assert matrix.shape == (16, 16)
        # nnz = diagonal + 2 per interior edge: 16 + 2*(12 + 12)
        assert matrix.nnz == 16 + 2 * 24

    def test_known_small_case(self):
        matrix = poisson_2d_matrix(2, 2)
        expected = np.array(
            [
                [4.0, -1.0, -1.0, 0.0],
                [-1.0, 4.0, 0.0, -1.0],
                [-1.0, 0.0, 4.0, -1.0],
                [0.0, -1.0, -1.0, 4.0],
            ]
        )
        np.testing.assert_array_equal(matrix.to_dense(), expected)

    def test_spd(self):
        matrix = poisson_2d_matrix(8)
        assert is_symmetric(matrix)
        assert positive_definite_probe(matrix)

    def test_rectangular_grid(self):
        matrix = poisson_2d_matrix(3, 5)
        assert matrix.shape == (15, 15)

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            poisson_2d_matrix(0)

    @pytest.mark.parametrize("build, args", [
        (poisson_2d_matrix, (4.0,)),
        (poisson_2d_matrix, (4, 2.5)),
        (poisson_2d_matrix, (True,)),
        (poisson_2d_matrix, ("4",)),
        (poisson_3d_matrix, (2, 2, 1.5)),
        (poisson_3d_matrix, (2, False, 2)),
        (convection_diffusion_2d_matrix, (4.0,)),
        (poisson_2d, (4.0,)),
        (poisson_2d, ("4",)),
        (poisson_3d, (3.0,)),
        (convection_diffusion_2d, (np.float64(4),)),
    ])
    def test_non_integer_grid_rejected(self, build, args):
        with pytest.raises(ConfigurationError, match="must be integers"):
            build(*args)

    def test_numpy_integer_grid_accepted(self):
        np.testing.assert_array_equal(
            poisson_2d_matrix(np.int64(4), np.int32(3)).to_dense(),
            poisson_2d_matrix(4, 3).to_dense(),
        )
        assert poisson_3d_matrix(np.int64(2)).shape == (8, 8)

    def test_problem_wrapper_solvable(self):
        problem = poisson_2d(10)
        from repro.solvers import ConjugateGradientSolver

        result = ConjugateGradientSolver().solve(problem.matrix, problem.b)
        assert result.converged
        assert problem.relative_error(result.x) < 1e-2


class TestPoisson3D:
    def test_seven_point_stencil(self):
        matrix = poisson_3d_matrix(3)
        assert matrix.shape == (27, 27)
        center = matrix.to_dense()[13]  # middle voxel
        assert center[13] == 6.0
        assert (center == -1.0).sum() == 6

    def test_spd(self):
        matrix = poisson_3d_matrix(4)
        assert is_symmetric(matrix)
        assert positive_definite_probe(matrix)

    def test_anisotropic_dimensions(self):
        matrix = poisson_3d_matrix(2, 3, 4)
        assert matrix.shape == (24, 24)

    def test_problem_wrapper(self):
        problem = poisson_3d(6)
        assert problem.n == 216
        assert problem.metadata["grid"] == (6, 6, 6)


class TestConvectionDiffusion:
    def test_nonsymmetric_for_positive_peclet(self):
        matrix = convection_diffusion_2d_matrix(6, peclet=5.0)
        assert not is_symmetric(matrix)

    def test_zero_peclet_reduces_to_poisson(self):
        cd = convection_diffusion_2d_matrix(5, peclet=0.0)
        poisson = poisson_2d_matrix(5)
        np.testing.assert_array_equal(cd.to_dense(), poisson.to_dense())

    def test_row_sums_conserve_upwind_flux(self):
        matrix = convection_diffusion_2d_matrix(4, peclet=3.0)
        dense = matrix.to_dense()
        # interior row: 4 + p - (1+p) - 1 - 1 - 1 = 0
        interior = 1 * 4 + 1  # row index of an interior cell on a 4x4 grid
        assert dense[interior].sum() == pytest.approx(0.0)

    def test_negative_peclet_rejected(self):
        with pytest.raises(ConfigurationError):
            convection_diffusion_2d_matrix(4, peclet=-1.0)

    @pytest.mark.parametrize(
        "peclet", [float("nan"), float("inf"), -float("inf"), "10"]
    )
    def test_non_finite_peclet_rejected(self, peclet):
        with pytest.raises(ConfigurationError, match="peclet"):
            convection_diffusion_2d_matrix(4, peclet=peclet)
        with pytest.raises(ConfigurationError, match="peclet"):
            convection_diffusion_2d(4, peclet=peclet)

    def test_acamar_routes_to_bicgstab(self):
        from repro import Acamar

        problem = convection_diffusion_2d(20, peclet=10.0)
        result = Acamar().solve(problem.matrix, problem.b)
        assert result.converged
        assert result.selection.solver in ("bicgstab", "jacobi")


GRIDS_2D = ((1, 1), (1, 5), (5, 1), (3, 4), (7, 3), (16, 16), (256, 256))
GRIDS_3D = ((1, 1, 1), (2, 3, 4), (5, 5, 5))


class TestScipyOracle:
    """The stencils, array for array, against a Kronecker construction.

    ``T_m`` is the 1-D second difference on ``m`` points; the grid
    operator sums one ``T`` per axis, x fastest, so the arrays of the
    canonical scipy CSR must equal the stencil's exactly.
    """

    @staticmethod
    def band(m: int, lower: float, center: float, upper: float):
        sparse = pytest.importorskip("scipy.sparse")
        return sparse.diags([lower, center, upper], [-1, 0, 1], shape=(m, m))

    @staticmethod
    def identity(m: int):
        return pytest.importorskip("scipy.sparse").identity(m)

    @staticmethod
    def assert_same_csr(matrix, reference) -> None:
        reference = reference.tocsr()
        reference.sum_duplicates()
        reference.eliminate_zeros()
        assert matrix.shape == reference.shape
        assert matrix.indptr.dtype == matrix.indices.dtype == np.int64
        assert matrix.data.dtype == np.float64
        np.testing.assert_array_equal(matrix.indptr, reference.indptr)
        np.testing.assert_array_equal(matrix.indices, reference.indices)
        np.testing.assert_array_equal(matrix.data, reference.data)

    def kron(self, *factors):
        sparse = pytest.importorskip("scipy.sparse")
        result = factors[0]
        for factor in factors[1:]:
            result = sparse.kron(result, factor)
        return result

    @pytest.mark.parametrize("nx, ny", GRIDS_2D)
    def test_poisson_2d(self, nx, ny):
        eye, t = self.identity, self.band
        reference = self.kron(eye(ny), t(nx, -1.0, 2.0, -1.0)) + self.kron(
            t(ny, -1.0, 2.0, -1.0), eye(nx)
        )
        self.assert_same_csr(poisson_2d_matrix(nx, ny), reference)

    @pytest.mark.parametrize("nx, ny, nz", GRIDS_3D)
    def test_poisson_3d(self, nx, ny, nz):
        eye, t = self.identity, self.band
        second = (-1.0, 2.0, -1.0)
        reference = (
            self.kron(eye(nz), eye(ny), t(nx, *second))
            + self.kron(eye(nz), t(ny, *second), eye(nx))
            + self.kron(t(nz, *second), eye(ny), eye(nx))
        )
        self.assert_same_csr(poisson_3d_matrix(nx, ny, nz), reference)

    @pytest.mark.parametrize("peclet", (0.0, 3.5, 10.0))
    @pytest.mark.parametrize("nx, ny", GRIDS_2D)
    def test_convection_diffusion(self, nx, ny, peclet):
        eye, t = self.identity, self.band
        upwind = t(nx, -(1.0 + peclet), 2.0 + peclet, -1.0)
        reference = self.kron(eye(ny), upwind) + self.kron(
            t(ny, -1.0, 2.0, -1.0), eye(nx)
        )
        self.assert_same_csr(
            convection_diffusion_2d_matrix(nx, peclet, ny), reference
        )
