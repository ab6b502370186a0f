"""Structure-cache contract of :class:`CSRMatrix`.

The hot-path overhaul made matrices cache derived structure (row ids,
row lengths, diagonal, transpose, SpMV kernel plan, scratch buffers).
These tests pin the contract: caching must be invisible — bit-identical
results, no aliasing of kernel scratch — and the
transpose-backed ``rmatvec`` must match the old scatter implementation
to a few ULP of the accumulated magnitude across dtypes.
"""

import numpy as np
import pytest

from repro.datasets.generators import sdd_matrix
from repro.datasets.pde import poisson_2d
from repro.sparse.csr import CSRMatrix


def fresh_copy(matrix: CSRMatrix) -> CSRMatrix:
    """A structurally identical matrix with an empty cache."""
    return CSRMatrix(
        matrix.shape,
        matrix.indptr.copy(),
        matrix.indices.copy(),
        matrix.data.copy(),
    )


def legacy_rmatvec(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The seed's scatter-based ``A.T @ x`` (reference implementation)."""
    out_dtype = np.result_type(matrix.data, x)
    row_of = np.repeat(np.arange(matrix.n_rows), np.diff(matrix.indptr))
    result = np.zeros(matrix.n_cols, dtype=out_dtype)
    np.add.at(result, matrix.indices, matrix.data * x[row_of])
    return result


@pytest.fixture(scope="module")
def matrix() -> CSRMatrix:
    return sdd_matrix(256, 6.0, seed=11)


class TestCacheParity:
    """Cached and freshly-constructed matrices agree bit-for-bit."""

    def test_matvec_bit_identical_and_stable(self, matrix):
        x = np.random.default_rng(0).standard_normal(matrix.n_cols)
        warm = matrix.matvec(x)  # builds plan + workspace
        again = matrix.matvec(x)
        cold = fresh_copy(matrix).matvec(x)
        np.testing.assert_array_equal(warm, cold)
        np.testing.assert_array_equal(again, cold)

    def test_rmatvec_bit_identical(self, matrix):
        x = np.random.default_rng(1).standard_normal(matrix.n_rows)
        warm = matrix.rmatvec(x)
        np.testing.assert_array_equal(warm, fresh_copy(matrix).rmatvec(x))
        np.testing.assert_array_equal(warm, matrix.rmatvec(x))

    def test_diagonal_bit_identical(self, matrix):
        np.testing.assert_array_equal(
            matrix.diagonal(), fresh_copy(matrix).diagonal()
        )

    def test_transpose_bit_identical(self, matrix):
        cached = matrix.transpose()
        fresh = fresh_copy(matrix).transpose()
        assert cached.structurally_equal(fresh)
        np.testing.assert_array_equal(cached.data, fresh.data)

    def test_transpose_is_cached_with_backlink(self, matrix):
        t = matrix.transpose()
        assert matrix.transpose() is t
        assert t.transpose() is matrix

    def test_without_diagonal_is_cached(self, matrix):
        off = matrix.without_diagonal()
        assert matrix.without_diagonal() is off
        np.testing.assert_array_equal(
            off.to_dense(), fresh_copy(matrix).without_diagonal().to_dense()
        )

    def test_cached_vectors_are_read_only(self, matrix):
        for view in (
            matrix.row_lengths(),
            matrix.row_ids(),
            matrix.diagonal(),
        ):
            with pytest.raises(ValueError):
                view[0] = 0

    def test_workspace_never_aliases_results(self, matrix):
        rng = np.random.default_rng(2)
        first = matrix.matvec(rng.standard_normal(matrix.n_cols))
        snapshot = first.copy()
        matrix.matvec(rng.standard_normal(matrix.n_cols))
        np.testing.assert_array_equal(first, snapshot)


class TestRmatvecUlpParity:
    """Transpose-backed rmatvec vs the old scatter, across dtypes.

    Reordered summation cannot be bitwise-stable, but every element must
    stay within a few ULP of the accumulated magnitude ``|A|.T @ |x|``
    (the natural error scale of a reordered sum).
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_scatter_to_the_ulp(self, dtype):
        matrix = sdd_matrix(512, 8.0, seed=3).astype(dtype)
        magnitude = matrix.with_data(np.abs(matrix.data))
        rng = np.random.default_rng(7)
        eps = float(np.finfo(dtype).eps)
        for _ in range(5):
            x = rng.standard_normal(matrix.n_rows).astype(dtype)
            new = matrix.rmatvec(x).astype(np.float64)
            old = legacy_rmatvec(matrix, x).astype(np.float64)
            scale = magnitude.rmatvec(np.abs(x)).astype(np.float64)
            bound = 4.0 * eps * np.maximum(scale, float(np.finfo(dtype).tiny))
            assert np.all(np.abs(new - old) <= bound)


class TestBandedFastPath:
    """The DIA kernel fires only for densely banded operators."""

    def test_poisson_takes_banded_path(self):
        operator = poisson_2d(16).matrix
        assert operator._spmv_plan()[0] == "dia"

    def test_random_structure_takes_csr_path(self, matrix):
        assert matrix._spmv_plan()[0] == "csr"

    def test_banded_matvec_matches_dense(self):
        operator = poisson_2d(12).matrix
        x = np.random.default_rng(4).standard_normal(operator.n_cols)
        np.testing.assert_allclose(
            operator.matvec(x), operator.to_dense() @ x, rtol=1e-12
        )

    def test_banded_rectangular_offsets(self):
        dense = np.zeros((3, 5))
        dense[0, 1] = 2.0
        dense[1, 2] = 3.0
        dense[2, 3] = 4.0
        operator = CSRMatrix.from_dense(dense)
        x = np.arange(5.0)
        np.testing.assert_allclose(operator.matvec(x), dense @ x)

    def test_empty_rows_stay_zero(self):
        operator = CSRMatrix(
            (4, 4),
            np.array([0, 1, 1, 1, 2]),
            np.array([0, 3]),
            np.array([2.0, 5.0]),
        )
        x = np.ones(4)
        np.testing.assert_array_equal(
            operator.matvec(x), np.array([2.0, 0.0, 0.0, 5.0])
        )


class TestWithData:
    def test_shares_structure_replaces_values(self, matrix):
        doubled = matrix.with_data(matrix.data * 2.0)
        assert doubled.indptr is matrix.indptr
        assert doubled.indices is matrix.indices
        np.testing.assert_array_equal(doubled.data, matrix.data * 2.0)

    def test_rejects_wrong_length(self, matrix):
        from repro.errors import SparseFormatError

        with pytest.raises(SparseFormatError):
            matrix.with_data(np.zeros(matrix.nnz + 1))
