"""Structure-cache contract of :class:`CSRMatrix`.

The hot-path overhaul made matrices cache derived structure (row ids,
row lengths, diagonal, transpose, SpMV kernel plan, scratch buffers).
These tests pin the contract: caching must be invisible — bit-identical
results, no aliasing of kernel scratch — and the
transpose-backed ``rmatvec`` must match the old scatter implementation
to a few ULP of the accumulated magnitude across dtypes.  A product
written into ``out`` is the allocating call's, bit for bit; scratch
buffers start on a cache line; a cast copy shares the structure.
"""

import numpy as np
import pytest

from repro.datasets.generators import sdd_matrix
from repro.datasets.pde import poisson_2d
from repro.errors import ReproError
from repro.sparse.csr import CSRMatrix

DTYPES = (np.float32, np.float64)
SIZES = (0, 1, 17, 2025, 65536)


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

    @pytest.mark.parametrize("n", [4, 1000])
    def test_plan_keeps_only_the_diagonals_spans(self, n):
        # Two corner entries: each diagonal spans one row, so the plan's
        # weights hold two values whatever n is, not two rows of n.
        operator = CSRMatrix(
            (n, n),
            np.array([0] + [1] * (n - 1) + [2]),
            np.array([n - 1, 0]),
            np.array([2.0, 5.0]),
        )
        plan = operator._spmv_plan()
        assert plan[0] == "dia"
        buffers = {}
        for term in plan[1]:
            weights = term[3] if term[3].base is None else term[3].base
            buffers[id(weights)] = weights.size
        assert sum(buffers.values()) == 2
        x = np.arange(1.0, n + 1)
        np.testing.assert_array_equal(
            operator.matvec(x), operator.to_dense() @ x
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


def plan_cases() -> dict[str, CSRMatrix]:
    """One matrix per SpMV plan, and the csr plan with empty rows."""
    rng = np.random.default_rng(5)
    dense = (rng.random((60, 45)) < 0.4) * rng.standard_normal((60, 45))
    empty_rows = dense.copy()
    empty_rows[::3] = 0.0
    return {
        "csr": CSRMatrix.from_dense(dense),
        "csr-empty-rows": CSRMatrix.from_dense(empty_rows),
        "dia": poisson_2d(12).matrix,
        "empty": CSRMatrix((7, 5), np.zeros(8, dtype=np.int64), [], []),
    }


PLAN_KINDS = {"csr": "csr", "csr-empty-rows": "csr", "dia": "dia",
              "empty": "empty"}


class TestOutArgument:
    """``matvec``/``rmatvec`` write the allocating call's bits into ``out``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(PLAN_KINDS))
    def test_bit_identical_to_the_allocating_call(self, case, dtype):
        matrix = plan_cases()[case].astype(dtype)
        assert matrix._spmv_plan()[0] == PLAN_KINDS[case]
        if case == "csr-empty-rows":
            assert matrix._spmv_plan()[2] is not None
        rng = np.random.default_rng(6)
        for method, n_in, n_out in (
            (matrix.matvec, matrix.n_cols, matrix.n_rows),
            (matrix.rmatvec, matrix.n_rows, matrix.n_cols),
        ):
            x = rng.standard_normal(n_in).astype(dtype)
            out = np.full(n_out, np.nan, dtype=dtype)
            assert method(x, out=out) is out
            expected = method(x)
            assert expected.dtype == out.dtype
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", sorted(PLAN_KINDS))
    def test_a_float32_x_widens_into_a_float64_out(self, case):
        matrix = plan_cases()[case]
        x = np.random.default_rng(7).standard_normal(matrix.n_cols)
        x = x.astype(np.float32)
        out = np.empty(matrix.n_rows)
        assert matrix.matvec(x, out=out).tobytes() == matrix.matvec(x).tobytes()

    @pytest.mark.parametrize("case", sorted(PLAN_KINDS))
    def test_a_bad_out_raises_a_repro_error(self, case):
        matrix = plan_cases()[case]
        for method, n_in, n_out in (
            (matrix.matvec, matrix.n_cols, matrix.n_rows),
            (matrix.rmatvec, matrix.n_rows, matrix.n_cols),
        ):
            read_only = np.empty(n_out)
            read_only.flags.writeable = False
            for out in (
                np.empty(n_out + 1),
                np.empty((n_out, 1)),
                np.empty(n_out, dtype=np.float32),
                np.empty(n_out, dtype=np.int64),
                list(np.empty(n_out)),
                read_only,
            ):
                with pytest.raises(ReproError):
                    method(np.ones(n_in), out=out)

    def test_out_sharing_memory_with_x_raises(self):
        matrix = poisson_2d(6).matrix
        x = np.ones(matrix.n_cols)
        with pytest.raises(ReproError):
            matrix.matvec(x, out=x)
        with pytest.raises(ReproError):
            matrix.rmatvec(x, out=x)
        buffer = np.ones(2 * matrix.n_rows)
        with pytest.raises(ReproError):
            matrix.matvec(buffer[: matrix.n_cols], out=buffer[1 : matrix.n_rows + 1])
        # Disjoint halves of one buffer are fine.
        out = matrix.matvec(buffer[: matrix.n_cols], out=buffer[matrix.n_rows :])
        assert out.tobytes() == matrix.matvec(np.ones(matrix.n_cols)).tobytes()


class TestAlignedWorkspace:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size", SIZES)
    def test_workspaces_start_on_a_cache_line(self, size, dtype):
        matrix = CSRMatrix.identity(3)
        buf = matrix._workspace("probe", size, dtype)
        assert buf.shape == (size,)
        assert buf.dtype == dtype
        assert buf.ctypes.data % 64 == 0

    def test_kernel_workspaces_are_aligned(self):
        for matrix in (poisson_2d(12).matrix, plan_cases()["csr"]):
            matrix.matvec(np.ones(matrix.n_cols, dtype=np.float32))
            buffers = [v for k, v in matrix._cache.items()
                       if isinstance(k, tuple) and k[0] == "ws"]
            assert buffers
            assert all(buf.ctypes.data % 64 == 0 for buf in buffers)


class TestAstypeSharesStructure:
    def test_structure_arrays_shared_values_copied(self, matrix):
        cast = matrix.astype(np.float32)
        assert np.shares_memory(cast.indptr, matrix.indptr)
        assert np.shares_memory(cast.indices, matrix.indices)
        assert not np.shares_memory(cast.data, matrix.data)
        np.testing.assert_array_equal(cast.data, matrix.data.astype(np.float32))

    def test_cached_structure_views_carry_over(self, matrix):
        ids, lengths = matrix.row_ids(), matrix.row_lengths()
        digest = matrix.structure_fingerprint()
        cast = matrix.astype(np.float32)
        assert cast.row_ids() is ids
        assert cast.row_lengths() is lengths
        assert cast._cache["structure_fingerprint"] == digest
        # Value-dependent views are the copy's own.
        assert "diagonal" not in cast._cache
        assert "spmv_plan" not in cast._cache
        assert "transpose" not in cast._cache

    def test_a_cold_cast_builds_its_own_views(self):
        cold = fresh_copy(sdd_matrix(64, 4.0, seed=2))
        cast = cold.astype(np.float32)
        assert cast._cache == {}
        np.testing.assert_array_equal(cast.row_ids(), cold.row_ids())
        assert cast.structure_fingerprint() == cold.structure_fingerprint()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_cast_products_match_a_fresh_cast(self, matrix, dtype):
        matrix.row_ids()
        x = np.random.default_rng(8).standard_normal(matrix.n_cols)
        x = x.astype(dtype)
        shared = matrix.astype(dtype)
        fresh = fresh_copy(matrix).astype(dtype)
        assert shared.matvec(x).tobytes() == fresh.matvec(x).tobytes()
        assert shared.rmatvec(x).tobytes() == fresh.rmatvec(x).tobytes()
