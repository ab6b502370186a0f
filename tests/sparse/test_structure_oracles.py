"""Oracle tests for the linear-time structure work in ``repro.sparse``.

``stable_order`` replaces comparison sorts in ``CSRMatrix.transpose`` and
``COOMatrix.canonical`` (which skips it for triplets already in row-major
order), and a diagonal census replaces ``np.unique`` in the SpMV plan
build.  Each is checked bit for bit against an independent
reference: numpy's stable argsort, the ``np.lexsort`` canonicalization and
``np.unique`` plan build they replaced (copied below), and scipy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.coo import stable_order
from repro.sparse.csr import _DIA_MAX_DIAGONALS, _DIA_MIN_FILL

BOUNDS = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 1)
"""One and two values, both sides of the first digit boundary, and a
bound that needs a third 16-bit digit."""

DIGIT_EDGES = (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32)


def edge_keys(bound: int) -> st.SearchStrategy[int]:
    """Keys in ``[0, bound)`` that often share a digit, so ties happen."""
    edges = sorted({v for v in (*DIGIT_EDGES, bound // 2, bound - 1) if v < bound})
    return st.one_of(st.sampled_from(edges), st.integers(0, bound - 1))


@st.composite
def bounded_keys(draw):
    bound = draw(st.sampled_from(BOUNDS))
    keys = draw(st.lists(edge_keys(bound), max_size=300))
    return np.array(keys, dtype=np.int64), bound


class TestStableOrder:
    @given(bounded_keys())
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, case):
        keys, bound = case
        np.testing.assert_array_equal(
            stable_order(keys, bound), np.argsort(keys, kind="stable")
        )

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_empty_keys(self, bound):
        order = stable_order(np.array([], dtype=np.int64), bound)
        assert order.shape == (0,)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_all_equal_keys_keep_their_order(self, bound):
        keys = np.full(5000, bound - 1, dtype=np.int64)
        np.testing.assert_array_equal(stable_order(keys, bound), np.arange(5000))

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_many_ties_across_digits(self, bound):
        # Large runs of equal digits on every pass: an unstable pass (an
        # introsort on the digits) scrambles them.
        rng = np.random.default_rng(bound)
        pool = np.array(sorted({v % bound for v in DIGIT_EDGES}), dtype=np.int64)
        keys = pool[rng.integers(0, len(pool), size=20000)]
        np.testing.assert_array_equal(
            stable_order(keys, bound), np.argsort(keys, kind="stable")
        )


def lexsort_canonical(coo: COOMatrix) -> COOMatrix:
    """The comparison-sort canonicalization ``stable_order`` replaced."""
    if coo.nnz == 0:
        return coo
    order = np.lexsort((coo.cols, coo.rows))
    rows, cols, data = coo.rows[order], coo.cols[order], coo.data[order]
    new_group = np.empty(len(rows), dtype=bool)
    new_group[0] = True
    new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group_ids = np.cumsum(new_group) - 1
    n_groups = group_ids[-1] + 1
    summed = np.zeros(n_groups, dtype=data.dtype)
    np.add.at(summed, group_ids, data)
    keep_rows = rows[new_group]
    keep_cols = cols[new_group]
    nonzero = summed != 0
    return COOMatrix(
        coo.shape, keep_rows[nonzero], keep_cols[nonzero], summed[nonzero]
    )


SIDES = (1, 3, 17, 2**16 + 3)
# Values whose sum depends on the order they are added in, cancelling
# pairs, explicit zeros of both signs.
VALUES = (1e16, -1e16, 1.0, -1.0, 0.1, 0.2, 0.3, 3.0, 0.0, -0.0)


@st.composite
def triplets(draw):
    shape = (draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES)))
    # Coordinates come from small pools, so most of them repeat.
    row_pool = draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=4))
    col_pool = draw(st.lists(st.integers(0, shape[1] - 1), min_size=1, max_size=4))
    nnz = draw(st.integers(0, 60))
    rows = draw(st.lists(st.sampled_from(row_pool), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.sampled_from(col_pool), min_size=nnz, max_size=nnz))
    data = draw(st.lists(st.sampled_from(VALUES), min_size=nnz, max_size=nnz))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    return COOMatrix(shape, rows, cols, np.array(data, dtype=dtype))


@st.composite
def ordered_triplets(draw):
    """Triplets already in row-major order, the order generators emit.

    Coordinates come from small pools and are sorted before the values
    are drawn, so repeats sit next to each other in input order.
    """
    shape = (draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES)))
    row_pool = draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=4))
    col_pool = draw(st.lists(st.integers(0, shape[1] - 1), min_size=1, max_size=4))
    nnz = draw(st.integers(0, 60))
    cells = sorted(
        draw(
            st.lists(
                st.tuples(st.sampled_from(row_pool), st.sampled_from(col_pool)),
                min_size=nnz,
                max_size=nnz,
            )
        )
    )
    data = draw(st.lists(st.sampled_from(VALUES), min_size=nnz, max_size=nnz))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    rows = np.array([row for row, _ in cells], dtype=np.int64)
    cols = np.array([col for _, col in cells], dtype=np.int64)
    return COOMatrix(shape, rows, cols, np.array(data, dtype=dtype))


def assert_same_coo(actual: COOMatrix, expected: COOMatrix) -> None:
    assert actual.shape == expected.shape
    for name in ("rows", "cols", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def refuse_sort(keys, bound):
    raise AssertionError("ordered triplets were sorted")


class TestCanonicalOracle:
    @given(triplets())
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort_reference(self, coo):
        assert_same_coo(coo.canonical(), lexsort_canonical(coo))

    def test_duplicate_summation_order_is_pinned(self):
        # (1e16 + 1) - 1e16 == 0 but (1e16 - 1e16) + 1 == 1: the sum
        # follows input order, so the sort must be stable.
        coo = COOMatrix(
            (2, 2**16 + 3),
            [1, 0, 1, 1, 0],
            [2**16 + 2, 5, 2**16 + 2, 2**16 + 2, 5],
            [1e16, 2.0, 1.0, -1e16, -2.0],
        )
        canon = coo.canonical()
        assert_same_coo(canon, lexsort_canonical(coo))
        assert canon.nnz == 0

    @given(ordered_triplets())
    @settings(max_examples=300, deadline=None)
    def test_ordered_triplets_skip_the_sort(self, coo):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.sparse.coo.stable_order", refuse_sort)
            canon = coo.canonical()
        assert_same_coo(canon, lexsort_canonical(coo))
        if coo.nnz:
            for name in ("rows", "cols", "data"):
                for given in (coo.rows, coo.cols, coo.data):
                    assert not np.shares_memory(getattr(canon, name), given), name

    @given(ordered_triplets())
    @settings(max_examples=100, deadline=None)
    def test_ordered_triplets_to_csr(self, coo):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.sparse.coo.stable_order", refuse_sort)
            csr = coo.to_csr()
        expected = lexsort_canonical(coo)
        np.testing.assert_array_equal(csr.row_ids(), expected.rows)
        np.testing.assert_array_equal(csr.indices, expected.cols)
        assert csr.data.dtype == expected.data.dtype
        np.testing.assert_array_equal(csr.data, expected.data)
        for given in (coo.rows, coo.cols, coo.data):
            for array in (csr.indptr, csr.indices, csr.data):
                assert not np.shares_memory(array, given)

    def test_keys_beyond_int64_take_the_sort(self):
        # 2**40 x 2**40 cells: a row-major key overflows int64, so even
        # ordered triplets are sorted, and still match the reference.
        side = 2**40
        coo = COOMatrix(
            (side, side),
            [0, 0, 5, side - 1, side - 1],
            [3, 3, side - 1, 0, side - 1],
            [1.0, 2.0, -0.0, 4.0, 5.0],
        )
        assert_same_coo(coo.canonical(), lexsort_canonical(coo))

    def test_wide_shape_orders_columns_across_digits(self):
        rng = np.random.default_rng(7)
        shape = (3, 2**20)
        rows = rng.integers(0, 3, size=4000)
        cols = rng.choice(np.array([0, 1, 2**16 - 1, 2**16, 2**20 - 1]), 4000)
        coo = COOMatrix(shape, rows, cols, rng.standard_normal(4000))
        assert_same_coo(coo.canonical(), lexsort_canonical(coo))


@st.composite
def csr_matrices(draw):
    shape = (draw(st.sampled_from(SIDES)), draw(st.sampled_from(SIDES)))
    nnz = draw(st.integers(0, 80))
    rows = draw(st.lists(edge_keys(shape[0]), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(edge_keys(shape[1]), min_size=nnz, max_size=nnz))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    data = np.arange(1, nnz + 1, dtype=dtype)
    return COOMatrix(shape, rows, cols, data).to_csr()


class TestTransposeOracle:
    @staticmethod
    def scipy_transpose(matrix: CSRMatrix):
        sparse = pytest.importorskip("scipy.sparse")
        ref = sparse.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
        ).T.tocsr()
        ref.sort_indices()
        return ref

    def assert_transpose_exact(self, matrix: CSRMatrix) -> None:
        ref = self.scipy_transpose(matrix)
        t = matrix.transpose()
        assert t.shape == ref.shape
        assert t.data.dtype == matrix.data.dtype
        np.testing.assert_array_equal(t.indptr, ref.indptr)
        np.testing.assert_array_equal(t.indices, ref.indices)
        np.testing.assert_array_equal(t.data, ref.data)

    @given(csr_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy(self, matrix):
        self.assert_transpose_exact(matrix)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(40, 40), (7, 2**16 + 9), (2**16 + 9, 7)])
    def test_equals_scipy_with_empty_rows_and_columns(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        nnz = 3000
        # Only a few rows and columns are used; the rest stay empty.
        rows = rng.choice(rng.choice(shape[0], min(shape[0], 9)), nnz)
        cols = rng.choice(rng.choice(shape[1], min(shape[1], 30)), nnz)
        values = rng.standard_normal(nnz).astype(dtype)
        self.assert_transpose_exact(COOMatrix(shape, rows, cols, values).to_csr())


def unique_plan(matrix: CSRMatrix) -> tuple:
    """The ``np.unique`` plan build the diagonal census replaced."""
    if matrix.nnz == 0:
        return ("empty",)
    n_rows, n_cols = matrix.shape
    offsets = matrix.indices - matrix.row_ids()
    distinct = np.unique(offsets)
    if len(distinct) <= _DIA_MAX_DIAGONALS:
        bounds = [
            (max(0, -int(d)), min(n_rows, n_cols - int(d))) for d in distinct
        ]
        footprint = sum(hi - lo for lo, hi in bounds)
        if footprint and matrix.nnz >= _DIA_MIN_FILL * footprint:
            terms = []
            row_ids = matrix.row_ids()
            for d, (lo, hi) in zip(distinct, bounds):
                mask = offsets == d
                weights = np.zeros(hi - lo, dtype=matrix.data.dtype)
                weights[row_ids[mask] - lo] = matrix.data[mask]
                terms.append((int(d), lo, hi, weights))
            return ("dia", tuple(terms))
    nonempty = matrix.indptr[:-1] != matrix.indptr[1:]
    if nonempty.all():
        return ("csr", matrix.indptr[:-1], None)
    return ("csr", matrix.indptr[:-1][nonempty], nonempty)


def assert_same_plan(actual: tuple, expected: tuple) -> None:
    assert actual[0] == expected[0]
    if actual[0] == "dia":
        assert len(actual[1]) == len(expected[1])
        for (d, lo, hi, w), (d2, lo2, hi2, w2) in zip(actual[1], expected[1]):
            assert (type(d), d, lo, hi) == (int, d2, lo2, hi2)
            assert w.dtype == w2.dtype
            np.testing.assert_array_equal(w, w2)
    elif actual[0] == "csr":
        np.testing.assert_array_equal(actual[1], expected[1])
        assert (actual[2] is None) == (expected[2] is None)
        if actual[2] is not None:
            np.testing.assert_array_equal(actual[2], expected[2])


def banded(shape, offsets, keep_every=1, dtype=np.float64) -> CSRMatrix:
    """Matrix with the given diagonals, every ``keep_every``-th entry set."""
    n_rows, n_cols = shape
    rows, cols = [], []
    for d in offsets:
        r = np.arange(max(0, -d), min(n_rows, n_cols - d))[::keep_every]
        rows.append(r)
        cols.append(r + d)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    values = np.arange(1, len(rows) + 1, dtype=dtype)
    return COOMatrix(shape, rows, cols, values).to_csr()


@st.composite
def diagonal_matrices(draw):
    shape = draw(
        st.sampled_from(
            [(1, 1), (30, 30), (6, 50), (50, 6), (1, 40), (40, 1), (5, 200), (200, 5)]
        )
    )
    n_rows, n_cols = shape
    offsets = draw(
        st.lists(
            st.integers(-(n_rows - 1), n_cols - 1), min_size=1, max_size=30,
            unique=True,
        )
    )
    keep_every = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    return banded(shape, offsets, keep_every, dtype)


class TestPlanOracle:
    @given(diagonal_matrices())
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_reference(self, matrix):
        assert_same_plan(matrix._spmv_plan(), unique_plan(matrix))

    @given(csr_matrices())
    @settings(max_examples=100, deadline=None)
    def test_equals_unique_reference_on_scattered_patterns(self, matrix):
        assert_same_plan(matrix._spmv_plan(), unique_plan(matrix))

    @pytest.mark.parametrize("n_diagonals, kind", [(24, "dia"), (25, "csr")])
    def test_diagonal_count_limit(self, n_diagonals, kind):
        matrix = banded((100, 100), list(range(-12, n_diagonals - 12)))
        plan = matrix._spmv_plan()
        assert plan[0] == kind
        assert_same_plan(plan, unique_plan(matrix))

    @pytest.mark.parametrize("extra, kind", [(0, "dia"), (-1, "csr")])
    def test_fill_exactly_one_half(self, extra, kind):
        # Diagonals 0, +1 and -1 of a 20x20 matrix: footprint 20 + 19 + 19
        # = 58.  Every second entry of diagonals 0 and +1 (10 each) plus
        # 9 + extra entries of diagonal -1 fill exactly half at extra = 0.
        n = 20
        lower = np.arange(1, n, 2)[: 9 + extra]
        rows = np.r_[np.arange(0, n, 2), np.arange(0, n - 1, 2), lower]
        cols = np.r_[np.arange(0, n, 2), np.arange(0, n - 1, 2) + 1, lower - 1]
        matrix = COOMatrix((n, n), rows, cols, np.ones(len(rows))).to_csr()
        assert matrix.nnz == 58 // 2 + extra
        plan = matrix._spmv_plan()
        assert plan[0] == kind
        assert_same_plan(plan, unique_plan(matrix))
