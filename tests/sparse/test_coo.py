"""Tests for the COO build format."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse import COOMatrix


class TestConstruction:
    def test_valid_triplets(self):
        coo = COOMatrix((3, 3), [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        assert coo.nnz == 3
        assert coo.shape == (3, 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SparseFormatError, match="equal length"):
            COOMatrix((3, 3), [0, 1], [1, 2, 0], [1.0, 2.0, 3.0])

    def test_row_out_of_bounds_rejected(self):
        with pytest.raises(SparseFormatError, match="row index"):
            COOMatrix((3, 3), [0, 3], [1, 2], [1.0, 2.0])

    def test_negative_row_rejected(self):
        with pytest.raises(SparseFormatError, match="row index"):
            COOMatrix((3, 3), [0, -1], [1, 2], [1.0, 2.0])

    def test_column_out_of_bounds_rejected(self):
        with pytest.raises(SparseFormatError, match="column index"):
            COOMatrix((3, 3), [0, 1], [1, 5], [1.0, 2.0])

    def test_negative_shape_rejected(self):
        with pytest.raises(SparseFormatError, match="negative shape"):
            COOMatrix((-1, 3), [], [], [])

    def test_empty_matrix(self):
        coo = COOMatrix((5, 5), [], [], [])
        assert coo.nnz == 0
        assert np.all(coo.to_dense() == 0)


class TestMalformedInput:
    """Malformed triplets raise ``SparseFormatError``, never a silent
    truncation, a numpy error or a matrix of strings."""

    def test_float_coordinates_rejected(self):
        with pytest.raises(SparseFormatError, match="rows must be integers"):
            COOMatrix((3, 3), [1.7, 0.2], [2.2, 0.0], [1.0, 2.0])
        with pytest.raises(SparseFormatError, match="cols must be integers"):
            COOMatrix((3, 3), [1, 0], [2.0, 0.0], [1.0, 2.0])

    def test_nan_coordinate_rejected(self):
        with pytest.raises(SparseFormatError, match="rows must be integers"):
            COOMatrix((3, 3), [np.nan, 0.0], [2, 0], [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(2.5, 3), (3, 2.0), (3,), (3, 3, 3), 3])
    def test_non_integer_shape_rejected(self, shape):
        with pytest.raises(SparseFormatError, match="shape must be two integers"):
            COOMatrix(shape, [0], [0], [1.0])

    @pytest.mark.parametrize(
        "shape", [(10**20, 2), (2, 2**63), (2**64, 2**64)]
    )
    def test_shape_beyond_int64_rejected(self, shape):
        with pytest.raises(SparseFormatError, match="exceeds the int64 range"):
            COOMatrix(shape, [0], [0], [1.0]).to_csr()

    def test_int64_max_shape_accepted(self):
        side = int(np.iinfo(np.int64).max)
        assert COOMatrix((2, side), [0], [side - 1], [1.0]).shape == (2, side)

    def test_numpy_integer_shape_becomes_python_ints(self):
        coo = COOMatrix((np.int32(3), np.int64(4)), [0], [3], [1.0])
        assert coo.shape == (3, 4)
        assert all(type(side) is int for side in coo.shape)

    @pytest.mark.parametrize("data", [["a"], [None], [1 + 2j]])
    def test_non_real_data_rejected(self, data):
        with pytest.raises(SparseFormatError, match="data must be real numbers"):
            COOMatrix((3, 3), [1], [2], data)

    def test_two_dimensional_arrays_rejected(self):
        with pytest.raises(SparseFormatError, match="rows must be 1-D"):
            COOMatrix((3, 3), [[0, 1]], [[1, 2]], [[1.0, 2.0]])
        with pytest.raises(SparseFormatError, match="data must be 1-D"):
            COOMatrix((3, 3), [0, 1], [1, 2], [[1.0, 2.0]])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_every_integer_dtype_accepted(self, dtype):
        coo = COOMatrix((3, 3), np.array([2, 0], dtype=dtype), [1, 2], [1.0, 2.0])
        assert coo.rows.dtype == np.int64
        np.testing.assert_array_equal(coo.rows, [2, 0])

    def test_int64_coordinates_are_not_copied(self):
        rows = np.array([2, 0], dtype=np.int64)
        assert COOMatrix((3, 3), rows, [1, 2], [1.0, 2.0]).rows is rows


class TestCanonical:
    def test_duplicates_are_summed(self):
        coo = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        canon = coo.canonical()
        assert canon.nnz == 2
        dense = canon.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 1.0

    def test_cancelling_duplicates_are_dropped(self):
        coo = COOMatrix((2, 2), [0, 0], [1, 1], [2.0, -2.0])
        assert coo.canonical().nnz == 0

    def test_sorted_by_row_then_column(self):
        coo = COOMatrix((3, 3), [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        canon = coo.canonical()
        assert list(canon.rows) == [0, 0, 1, 2]
        assert list(canon.cols) == [0, 2, 1, 0]

    def test_canonical_of_empty_is_identity(self):
        coo = COOMatrix((2, 2), [], [], [])
        assert coo.canonical() is coo

    def test_ordered_input_is_copied(self):
        rows = np.array([0, 0, 1, 2])
        cols = np.array([0, 2, 1, 0])
        data = np.array([1.0, 2.0, 3.0, 4.0])
        canon = COOMatrix((3, 3), rows, cols, data).canonical()
        for got, given in zip((canon.rows, canon.cols, canon.data), (rows, cols, data)):
            np.testing.assert_array_equal(got, given)
            assert not np.shares_memory(got, given)

    def test_ordered_input_drops_zeros_of_both_signs(self):
        coo = COOMatrix((2, 2), [0, 0, 1, 1], [0, 1, 0, 1], [1.0, -0.0, 0.0, 2.0])
        canon = coo.canonical()
        assert list(canon.rows) == [0, 1]
        assert list(canon.cols) == [0, 1]
        assert list(canon.data) == [1.0, 2.0]

    def test_ordered_input_sums_adjacent_duplicates(self):
        coo = COOMatrix((2, 2), [0, 0, 0, 1], [1, 1, 1, 0], [1e16, 1.0, -1e16, 5.0])
        canon = coo.canonical()
        assert list(canon.cols) == [0]
        assert list(canon.data) == [5.0]


class TestConversions:
    def test_dense_roundtrip(self, rng):
        dense = rng.standard_normal((6, 8)) * (rng.random((6, 8)) < 0.4)
        coo = COOMatrix.from_dense(dense)
        np.testing.assert_array_equal(coo.to_dense(), dense)

    def test_from_dense_rejects_non_2d(self):
        with pytest.raises(ShapeMismatchError, match="2-D"):
            COOMatrix.from_dense(np.zeros(4))

    def test_to_csr_matches_dense(self, rng):
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.5)
        csr = COOMatrix.from_dense(dense).to_csr()
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_to_csr_shares_no_memory_with_ordered_input(self):
        rows = np.array([0, 1, 1])
        cols = np.array([1, 0, 2])
        data = np.array([1.0, 2.0, 3.0])
        csr = COOMatrix((2, 3), rows, cols, data).to_csr()
        np.testing.assert_array_equal(csr.indptr, [0, 1, 3])
        np.testing.assert_array_equal(csr.indices, cols)
        np.testing.assert_array_equal(csr.data, data)
        for array in (csr.indptr, csr.indices, csr.data):
            for given in (rows, cols, data):
                assert not np.shares_memory(array, given)

    def test_to_csr_merges_duplicates(self):
        coo = COOMatrix((2, 3), [0, 0, 1], [2, 2, 0], [1.0, 1.0, 5.0])
        csr = coo.to_csr()
        assert csr.nnz == 2
        assert csr.to_dense()[0, 2] == 2.0
