"""Tests for the CSR compute format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse import CSRMatrix
from tests.conftest import random_dense


class TestConstruction:
    def test_valid(self, small_csr):
        assert small_csr.shape == (4, 4)
        assert small_csr.nnz == 10

    def test_indptr_wrong_length(self):
        with pytest.raises(SparseFormatError, match="indptr"):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(SparseFormatError, match="start at 0"):
            CSRMatrix((2, 2), [1, 1, 2], [0], [1.0])

    def test_indptr_decreasing_rejected(self):
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_indptr_data_mismatch(self):
        with pytest.raises(SparseFormatError, match="agree"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0])

    def test_column_out_of_bounds(self):
        with pytest.raises(SparseFormatError, match="column index"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 2], [1.0, 2.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            CSRMatrix((1, 3), [0, 2], [2, 0], [1.0, 2.0])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            CSRMatrix((1, 3), [0, 2], [1, 1], [1.0, 2.0])

    def test_float_indptr_rejected(self):
        with pytest.raises(SparseFormatError, match="indptr must be integers"):
            CSRMatrix((2, 2), [0, 1.5, 2], [0, 1], [1.0, 2.0])

    def test_float_indices_rejected(self):
        with pytest.raises(SparseFormatError, match="indices must be integers"):
            CSRMatrix((2, 2), [0, 1, 2], [0.0, 1.0], [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(2.5, 2), (2,), (-1, 2)])
    def test_malformed_shape_rejected(self, shape):
        with pytest.raises(SparseFormatError, match="shape"):
            CSRMatrix(shape, [0, 1, 2], [0, 1], [1.0, 2.0])

    def test_string_data_rejected(self):
        with pytest.raises(SparseFormatError, match="data must be real numbers"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 1], ["a", "b"])

    def test_empty_lists_accepted(self):
        matrix = CSRMatrix((2, 3), [0, 0, 0], [], [])
        assert matrix.nnz == 0
        assert matrix.indices.dtype == np.int64

    def test_decreasing_across_row_boundary_allowed(self):
        matrix = CSRMatrix((2, 3), [0, 1, 2], [2, 0], [1.0, 2.0])
        assert matrix.nnz == 2


class TestBasicProperties:
    def test_density(self, small_csr):
        assert small_csr.density == pytest.approx(10 / 16)

    def test_density_of_empty_shape(self):
        matrix = CSRMatrix((0, 0), [0], [], [])
        assert matrix.density == 0.0

    def test_row_lengths(self, small_csr):
        np.testing.assert_array_equal(small_csr.row_lengths(), [2, 3, 3, 2])

    def test_identity(self):
        eye = CSRMatrix.identity(4)
        np.testing.assert_array_equal(eye.to_dense(), np.eye(4))


class TestMatvec:
    def test_against_dense(self, rng):
        dense = random_dense(rng, 30, 20, density=0.3)
        matrix = CSRMatrix.from_dense(dense)
        x = rng.standard_normal(20)
        np.testing.assert_allclose(matrix.matvec(x), dense @ x, rtol=1e-12)

    def test_against_scipy(self, rng):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        dense = random_dense(rng, 50, 50, density=0.1)
        matrix = CSRMatrix.from_dense(dense)
        reference = scipy_sparse.csr_matrix(dense)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(matrix.matvec(x), reference @ x, rtol=1e-12)

    def test_empty_rows_give_zero(self):
        matrix = CSRMatrix((3, 3), [0, 0, 1, 1], [1], [5.0])
        result = matrix.matvec(np.ones(3))
        np.testing.assert_array_equal(result, [0.0, 5.0, 0.0])

    def test_shape_mismatch(self, small_csr):
        with pytest.raises(ShapeMismatchError):
            small_csr.matvec(np.ones(5))

    def test_rmatvec_against_dense(self, rng):
        dense = random_dense(rng, 25, 35, density=0.2)
        matrix = CSRMatrix.from_dense(dense)
        y = rng.standard_normal(25)
        np.testing.assert_allclose(matrix.rmatvec(y), dense.T @ y, rtol=1e-12)

    def test_rmatvec_shape_mismatch(self, small_csr):
        with pytest.raises(ShapeMismatchError):
            small_csr.rmatvec(np.ones(3))

    def test_matvec_preserves_float32(self, small_csr):
        matrix = small_csr.astype(np.float32)
        result = matrix.matvec(np.ones(4, dtype=np.float32))
        assert result.dtype == np.float32


class TestStructure:
    def test_diagonal(self, small_csr):
        np.testing.assert_array_equal(small_csr.diagonal(), [4.0] * 4)

    def test_diagonal_with_missing_entries(self):
        dense = np.array([[0.0, 1.0], [2.0, 3.0]])
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(matrix.diagonal(), [0.0, 3.0])

    def test_diagonal_rectangular(self, rng):
        dense = random_dense(rng, 3, 5, density=0.8)
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(matrix.diagonal(), np.diag(dense)[:3])

    def test_without_diagonal(self, small_csr, small_dense):
        off = small_csr.without_diagonal()
        expected = small_dense - np.diag(np.diag(small_dense))
        np.testing.assert_array_equal(off.to_dense(), expected)
        assert off.nnz == small_csr.nnz - 4

    def test_transpose_roundtrip(self, rng):
        dense = random_dense(rng, 8, 12, density=0.3)
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(matrix.transpose().to_dense(), dense.T)
        np.testing.assert_allclose(
            matrix.transpose().transpose().to_dense(), dense
        )

    def test_astype(self, small_csr):
        converted = small_csr.astype(np.float32)
        assert converted.data.dtype == np.float32
        np.testing.assert_allclose(converted.to_dense(), small_csr.to_dense())


class TestConversionsAndComparisons:
    def test_to_coo_roundtrip(self, rng):
        dense = random_dense(rng, 9, 9, density=0.25)
        matrix = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(matrix.to_coo().to_csr().to_dense(), dense)

    def test_structural_equality(self, small_csr):
        other = CSRMatrix(
            small_csr.shape,
            small_csr.indptr.copy(),
            small_csr.indices.copy(),
            small_csr.data * 2.0,
        )
        assert small_csr.structurally_equal(other)
        assert not small_csr.allclose(other)
        assert small_csr.allclose(small_csr)

    def test_structural_inequality_different_pattern(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not a.structurally_equal(b)
