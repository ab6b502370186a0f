"""Tests for structural-property analysis (Eq. 1-4 checks)."""

import numpy as np
import pytest

from repro.datasets.pde import convection_diffusion_2d_matrix
from repro.sparse import CSRMatrix
from repro.sparse.properties import (
    analyze_properties,
    diagonal_dominance_margin,
    estimate_spectral_radius,
    is_strictly_diagonally_dominant,
    is_symmetric,
    jacobi_iteration_spectral_radius,
    positive_definite_probe,
)


DOMINANCE_SCALES = (1e-7, 0.3, 0.7, 1.0, 1e9)
"""At 1e-7, 0.3 and 0.7 the float64 off-diagonal row sums of the weakly
dominant convection-diffusion operator round below its diagonal."""


def dominance_verdicts(dense) -> list[bool]:
    """Strict dominance of ``dense`` at each scale; it must not move."""
    return [
        is_strictly_diagonally_dominant(
            CSRMatrix.from_dense(np.asarray(dense) * scale)
        )
        for scale in DOMINANCE_SCALES
    ]


class TestDiagonalDominance:
    def test_strictly_dominant(self, small_dense):
        assert dominance_verdicts(small_dense) == [True] * 5

    def test_weakly_dominant_is_rejected(self):
        # Row sums equal the diagonal: weak, not strict.
        dense = np.array([[2.0, -2.0], [-2.0, 2.0]])
        assert dominance_verdicts(dense) == [False] * 5

    def test_zero_diagonal_rejected(self):
        dense = np.array([[0.0, 1.0], [1.0, 3.0]])
        assert dominance_verdicts(dense) == [False] * 5

    def test_negative_diagonal_can_dominate(self):
        dense = np.array([[-3.0, 1.0], [1.0, -3.0]])
        assert dominance_verdicts(dense) == [True] * 5

    def test_rectangular_is_rejected(self):
        dense = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0]])
        assert dominance_verdicts(dense) == [False] * 5

    def test_convection_diffusion_is_weakly_dominant(self):
        # Interior rows are weakly dominant (off-diagonal sum equal to
        # the diagonal before scaling): no scale may make them strict.
        dense = convection_diffusion_2d_matrix(16).to_dense()
        assert dominance_verdicts(dense) == [False] * 5

    def test_margin_values(self, small_csr):
        margin = diagonal_dominance_margin(small_csr)
        np.testing.assert_allclose(margin, [3.0, 2.0, 2.0, 3.0])


SYMMETRY_SCALES = (1e-9, 1.0, 1e9)


def symmetry_verdicts(dense) -> list[bool]:
    """``is_symmetric`` on ``dense`` at each scale; it must not move."""
    return [
        is_symmetric(CSRMatrix.from_dense(np.asarray(dense) * scale))
        for scale in SYMMETRY_SCALES
    ]


class TestSymmetry:
    def test_symmetric(self, small_dense):
        assert symmetry_verdicts(small_dense) == [True] * 3

    def test_nonsymmetric_values(self):
        dense = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert symmetry_verdicts(dense) == [False] * 3

    def test_nonsymmetric_pattern(self):
        dense = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert symmetry_verdicts(dense) == [False] * 3

    def test_rectangular_rejected(self):
        for dense in (np.ones((2, 3)), np.eye(3, 4)):
            assert symmetry_verdicts(dense) == [False] * 3

    def test_tiny_asymmetry_within_tolerance(self):
        dense = np.array([[1.0, 2.0], [2.0 * (1 + 1e-9), 1.0]])
        assert symmetry_verdicts(dense) == [True] * 3

    def test_convection_diffusion_is_nonsymmetric(self):
        dense = convection_diffusion_2d_matrix(16).to_dense()
        assert symmetry_verdicts(dense) == [False] * 3


class TestDefinitenessProbe:
    def test_spd_passes(self, spd_system):
        matrix, _, _ = spd_system
        assert positive_definite_probe(matrix)

    def test_negative_definite_fails(self):
        matrix = CSRMatrix.from_dense(-np.eye(10))
        assert not positive_definite_probe(matrix)

    def test_indefinite_fails(self):
        matrix = CSRMatrix.from_dense(np.diag([1.0] * 10 + [-1.0] * 10))
        assert not positive_definite_probe(matrix)

    def test_rectangular_rejected(self):
        assert not positive_definite_probe(CSRMatrix.from_dense(np.ones((2, 3))))

    def test_deterministic_given_seed(self, spd_system):
        matrix, _, _ = spd_system
        assert positive_definite_probe(matrix, seed=3) == positive_definite_probe(
            matrix, seed=3
        )


class TestSpectralRadius:
    def test_diagonal_matrix_exact(self):
        diag = np.diag([0.5, -2.0, 1.0])

        def matvec(x):
            return diag @ x

        radius = estimate_spectral_radius(matvec, 3, n_iters=500)
        assert radius == pytest.approx(2.0, rel=1e-3)

    def test_zero_operator(self):
        radius = estimate_spectral_radius(lambda x: np.zeros_like(x), 4)
        assert radius == 0.0

    def test_jacobi_radius_for_sdd_below_one(self, small_csr):
        assert jacobi_iteration_spectral_radius(small_csr) < 1.0

    def test_jacobi_radius_infinite_for_zero_diagonal(self):
        dense = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert jacobi_iteration_spectral_radius(
            CSRMatrix.from_dense(dense)
        ) == np.inf

    def test_jacobi_radius_matches_dense_eigenvalues(self, rng):
        from tests.conftest import random_dense

        dense = random_dense(rng, 40, 40, density=0.2)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 0.5)
        matrix = CSRMatrix.from_dense(dense)
        estimated = jacobi_iteration_spectral_radius(matrix, n_iters=800)
        diag = np.diag(dense)
        iteration_matrix = (dense - np.diag(diag)) / diag[:, None]
        exact = np.abs(np.linalg.eigvals(iteration_matrix)).max()
        assert estimated == pytest.approx(exact, rel=0.05)


class TestAnalyze:
    def test_summary_fields(self, small_csr):
        props = analyze_properties(small_csr)
        assert props.square
        assert props.symmetric
        assert props.strictly_diagonally_dominant
        assert props.nnz == 10
        assert props.density == pytest.approx(10 / 16)

    def test_nonsquare(self):
        props = analyze_properties(CSRMatrix.from_dense(np.ones((2, 3))))
        assert not props.square
        assert not props.symmetric
