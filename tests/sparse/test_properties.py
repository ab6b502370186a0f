"""Tests for structural-property analysis (Eq. 1-4 checks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import dataset_keys, load_problem
from repro.datasets.pde import convection_diffusion_2d_matrix
from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.properties import (
    analyze_properties,
    diagonal_dominance_margin,
    estimate_spectral_radius,
    is_strictly_diagonally_dominant,
    is_symmetric,
    jacobi_iteration_spectral_radius,
    positive_definite_probe,
)
from tests.sparse.test_hypothesis_sparse import dense_matrices
from tests.sparse.test_spmv_oracle import coo_matrices
from tests.sparse.test_structure_oracles import csr_matrices, diagonal_matrices


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


def csr_csc_verdict(matrix: CSRMatrix, rtol: float = 1e-6) -> bool:
    """The symmetry check without the column-count exit: CSR against CSC."""
    if matrix.shape[0] != matrix.shape[1]:
        return False
    cold = CSRMatrix(matrix.shape, matrix.indptr, matrix.indices, matrix.data)
    transpose = cold.transpose()
    if not transpose.structurally_equal(cold):
        return False
    scale = float(np.abs(cold.data).max(initial=0.0))
    atol = rtol * scale if np.isfinite(scale) else 0.0
    return bool(np.allclose(transpose.data, cold.data, rtol=rtol, atol=atol))


def assert_same_symmetry_verdict(matrix: CSRMatrix) -> None:
    verdict = is_symmetric(matrix)
    assert verdict == csr_csc_verdict(matrix)
    square = matrix.shape[0] == matrix.shape[1]
    counts_match = square and np.array_equal(
        np.bincount(matrix.indices, minlength=matrix.n_cols),
        matrix.row_lengths(),
    )
    # The transposition is built only when the column counts match.
    assert ("transpose" in matrix._cache) == counts_match


@st.composite
def permuted_patterns(draw):
    """Square patterns whose column counts equal their row lengths.

    A sum of permutation matrices: every row and every column holds the
    same number of entries, so only the CSR/CSC comparison decides.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perms = [rng.permutation(n) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        perms.append(np.argsort(perms[0]))  # the inverse permutation
    rows = np.concatenate([np.arange(n)] * len(perms))
    cols = np.concatenate(perms)
    keys = np.unique(rows * n + cols)
    values = draw(st.sampled_from([np.ones(len(keys)), rng.random(len(keys))]))
    return CSRMatrix.from_dense(
        np.bincount(keys, weights=values, minlength=n * n).reshape(n, n)
    )


class TestSymmetryEarlyExit:
    """The column-count exit never changes the CSR/CSC verdict."""

    @pytest.mark.parametrize("seed", range(4))
    def test_stand_ins(self, seed):
        for key in dataset_keys():
            matrix = load_problem(key, seed).matrix
            fresh = CSRMatrix(
                matrix.shape, matrix.indptr, matrix.indices, matrix.data
            )
            assert_same_symmetry_verdict(fresh)

    @given(dense_matrices(square=True))
    @settings(max_examples=100, deadline=None)
    def test_dense_matrices(self, dense):
        assert_same_symmetry_verdict(CSRMatrix.from_dense(dense))
        assert_same_symmetry_verdict(CSRMatrix.from_dense(dense + dense.T))

    @given(coo_matrices())
    @settings(max_examples=100, deadline=None)
    def test_coo_matrices(self, coo):
        assert_same_symmetry_verdict(coo.to_csr())

    @given(st.one_of(csr_matrices(), diagonal_matrices()))
    @settings(max_examples=100, deadline=None)
    def test_structure_oracle_matrices(self, matrix):
        assert_same_symmetry_verdict(matrix)

    @given(permuted_patterns())
    @settings(max_examples=100, deadline=None)
    def test_equal_counts_fall_through_to_the_comparison(self, matrix):
        assert_same_symmetry_verdict(matrix)

    def test_unequal_counts_skip_the_transposition(self):
        coo = COOMatrix((3, 3), [0, 0, 1, 2], [0, 1, 1, 2], [1.0, 2.0, 3.0, 4.0])
        matrix = coo.to_csr()
        assert not is_symmetric(matrix)
        assert "transpose" not in matrix._cache


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
