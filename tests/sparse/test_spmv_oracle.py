"""SpMV checked against scipy, and pinned bit for bit to the seed kernel.

Two kinds of check:

- **Oracle.**  Both SpMV plans (``csr`` and ``dia``) and ``rmatvec``
  agree with ``scipy.sparse.csr_matrix`` in float32 and float64.  Each
  side computes output ``i`` as a sum of ``L_i`` rounded products, so
  each lies within ``gamma_L * sum_j |a_ij x_j|`` of the exact value,
  ``gamma_L = L u / (1 - L u)`` with ``u`` the unit roundoff, whatever
  the summation order (Higham, *Accuracy and Stability of Numerical
  Algorithms*, 2nd ed., eq. 3.5).  The two sides may therefore differ
  by twice that, plus one smallest subnormal per operation for gradual
  underflow.
- **Pin.**  The ``csr`` plan returns exactly the seed formula
  ``np.add.reduceat(data * x[indices], starts)``, with NaN, +-inf and
  -0.0 in ``x``: same bits, same dtype.
- **Non-finite operands on the banded plan.**  With NaN, +-inf and -0.0
  in ``x``, the ``dia`` plan's rows are NaN and infinite exactly where
  scipy's are, with the same signs, and its finite rows meet the
  oracle's bound: a row's zero padding never multiplies an infinity into
  NaN, while a stored zero still does.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets import dataset_keys, load_problem
from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.csr import _DIA_MAX_DIAGONALS
from tests.sparse.test_structure_oracles import banded, diagonal_matrices

sparse = pytest.importorskip("scipy.sparse")

DTYPES = (np.float32, np.float64)


def to_scipy(matrix: CSRMatrix):
    return sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def rounding_bound(
    lengths: np.ndarray, magnitudes: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """Largest gap between two SpMVs that each meet the gamma_L bound."""
    info = np.finfo(dtype)
    lu = lengths * (info.eps / 2)
    gamma = lu / (1 - lu)
    underflow = 2 * lengths * info.smallest_subnormal
    # ``magnitudes`` is summed in float64; the factor covers its rounding.
    return 2 * (gamma * magnitudes * (1 + 1e-12) + underflow)


def assert_within_bound(
    actual: np.ndarray, expected: np.ndarray, lengths: np.ndarray,
    magnitudes: np.ndarray,
) -> None:
    assert actual.dtype == expected.dtype
    assert np.all(np.isfinite(actual))
    bound = rounding_bound(lengths, magnitudes, actual.dtype)
    gap = np.abs(actual.astype(np.float64) - expected.astype(np.float64))
    worst = int(np.argmax(gap - bound)) if len(gap) else 0
    assert np.all(gap <= bound), (
        f"row {worst}: gap {gap[worst]:.3e} > bound {bound[worst]:.3e}"
    )


def check_matvec(matrix: CSRMatrix, x: np.ndarray) -> None:
    reference = to_scipy(matrix) @ x
    magnitudes = to_scipy(abs_matrix(matrix)) @ np.abs(x.astype(np.float64))
    assert_within_bound(
        matrix.matvec(x), reference, matrix.row_lengths(), magnitudes
    )


def check_rmatvec(matrix: CSRMatrix, x: np.ndarray) -> None:
    reference = to_scipy(matrix).T @ x
    magnitudes = to_scipy(abs_matrix(matrix)).T @ np.abs(x.astype(np.float64))
    lengths = np.bincount(matrix.indices, minlength=matrix.n_cols)
    assert_within_bound(matrix.rmatvec(x), reference, lengths, magnitudes)


def abs_matrix(matrix: CSRMatrix) -> CSRMatrix:
    return matrix.with_data(np.abs(matrix.data.astype(np.float64)))


def seed_matvec(matrix: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """The seed kernel: gather, multiply, ``reduceat`` per nonempty row."""
    products = matrix.data * x[matrix.indices]
    result = np.zeros(matrix.n_rows, dtype=products.dtype)
    nonempty = np.diff(matrix.indptr) > 0
    if nonempty.any():
        starts = matrix.indptr[:-1][nonempty]
        result[nonempty] = np.add.reduceat(products, starts)
    return result


def assert_seed_bits(matrix: CSRMatrix, x: np.ndarray) -> None:
    """``matrix.matvec(x)`` is the seed kernel's result, bit for bit."""
    with np.errstate(all="ignore"):
        actual, expected = matrix.matvec(x), seed_matvec(matrix, x)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def with_specials(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``x`` with NaN, +-inf and -0.0 written over a few entries."""
    x = x.copy()
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=x.dtype)
    count = min(len(x), 4 + len(x) // 50)
    positions = rng.choice(len(x), count, replace=False)
    x[positions] = specials[np.arange(count) % len(specials)]
    return x


# -- matrices -----------------------------------------------------------


@st.composite
def coo_matrices(draw, max_side=40, max_entries=160):
    """COO input with repeated coordinates, empty rows and thin shapes."""
    shape = draw(st.sampled_from([
        (1, 1), (1, max_side), (max_side, 1),
        (draw(st.integers(1, max_side)), draw(st.integers(1, max_side))),
    ]))
    n_entries = draw(st.integers(0, max_entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, shape[0], n_entries)
    cols = rng.integers(0, shape[1], n_entries)
    return COOMatrix(shape, rows, cols, rng.standard_normal(n_entries))


def scaled_matrix(rng, n, density, exponent, dtype) -> CSRMatrix:
    """Random pattern whose values are ``+-[1, 2) * 2**exponent``."""
    dense = (rng.random((n, n)) < density) * rng.uniform(1, 2, (n, n))
    dense *= rng.choice([-1.0, 1.0], (n, n)) * 2.0**exponent
    return CSRMatrix.from_dense(dense).astype(dtype)


# -- oracle -------------------------------------------------------------


class TestScipyOracle:
    @given(coo_matrices(), st.sampled_from(DTYPES), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matvec_and_rmatvec(self, coo, dtype, seed):
        matrix = coo.to_csr().astype(dtype)
        rng = np.random.default_rng(seed)
        check_matvec(matrix, rng.standard_normal(matrix.n_cols).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(matrix.n_rows).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_rows_take_the_masked_path(self, dtype):
        rng = np.random.default_rng(1)
        dense = (rng.random((60, 45)) < 0.4) * rng.standard_normal((60, 45))
        dense[::3] = 0.0
        matrix = CSRMatrix.from_dense(dense).astype(dtype)
        plan = matrix._spmv_plan()
        assert plan[0] == "csr" and plan[2] is not None
        check_matvec(matrix, rng.standard_normal(45).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(60).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(1, 300), (300, 1)], ids=["row", "column"])
    def test_single_row_and_single_column(self, dtype, shape):
        rng = np.random.default_rng(2)
        dense = (rng.random(shape) < 0.7) * rng.standard_normal(shape)
        matrix = CSRMatrix.from_dense(dense).astype(dtype)
        check_matvec(matrix, rng.standard_normal(shape[1]).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(shape[0]).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_duplicate_coo_entries(self, dtype):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 30, 900)
        cols = rng.integers(0, 30, 900)
        coo = COOMatrix((30, 30), rows, cols, rng.standard_normal(900))
        matrix = coo.to_csr().astype(dtype)
        assert matrix.nnz < 900
        check_matvec(matrix, rng.standard_normal(30).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(30).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "exponent", [61, -66], ids=["huge", "subnormal"]
    )
    def test_magnitudes_near_the_float32_range(self, dtype, exponent):
        # Huge: products up to 2**124 and sums of at most 16 of them stay
        # below float32's largest value, 2**128.  Subnormal: every product
        # lies below float32's smallest normal number, 2**-126.
        rng = np.random.default_rng(4)
        matrix = scaled_matrix(rng, 80, 0.1, exponent, dtype)
        x = (rng.uniform(1, 2, 80) * 2.0**exponent).astype(dtype)
        assert matrix.row_lengths().max() <= 16
        assert np.bincount(matrix.indices).max() <= 16
        check_matvec(matrix, x)
        check_rmatvec(matrix, x)

    @pytest.mark.parametrize(
        "x_dtype", [np.int64, np.int32, np.float32], ids=["int64", "int32", "f32"]
    )
    @pytest.mark.parametrize("banded_plan", [False, True], ids=["csr", "dia"])
    def test_narrower_x_against_a_float64_matrix(self, x_dtype, banded_plan):
        rng = np.random.default_rng(5)
        if banded_plan:
            matrix = banded((50, 50), [-3, 0, 1, 4])
        else:
            matrix = scaled_matrix(rng, 50, 0.3, 0, np.float64)
        assert matrix._spmv_plan()[0] == ("dia" if banded_plan else "csr")
        x = rng.integers(-1000, 1000, 50).astype(x_dtype)
        check_matvec(matrix, x)
        check_rmatvec(matrix, x)
        assert matrix.matvec(x).dtype == np.float64


class TestPlanBoundaries:
    """Both plans meet the oracle on either side of each plan rule."""

    @staticmethod
    def spread(n: int, width: int, rng) -> CSRMatrix:
        """Diagonals ``0..width`` with row ``i`` skipping ``i mod (width+1)``.

        ``width + 1`` distinct diagonals, about fully occupied, while no
        row holds more than ``width`` entries: the census decides.
        """
        rows, cols = [], []
        for d in range(width + 1):
            r = np.arange(0, n - d)
            r = r[r % (width + 1) != d]
            rows.append(r)
            cols.append(r + d)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        values = rng.standard_normal(len(rows))
        return COOMatrix((n, n), rows, cols, values).to_csr()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_diagonals, kind", [(24, "dia"), (25, "csr")])
    def test_diagonal_cap_decided_by_the_census(self, dtype, n_diagonals, kind):
        rng = np.random.default_rng(6)
        matrix = self.spread(120, n_diagonals - 1, rng).astype(dtype)
        assert matrix.row_lengths().max() <= _DIA_MAX_DIAGONALS
        assert matrix._spmv_plan()[0] == kind
        assert "row_ids" in matrix._cache  # the census ran
        check_matvec(matrix, rng.standard_normal(120).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(120).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("longest, kind", [(24, "dia"), (25, "csr")])
    def test_longest_row_rule(self, dtype, longest, kind):
        # Diagonals 0..23 of a 120-by-120 matrix: row 0 holds 24 entries
        # and the census picks the banded plan.  One more entry in row 0
        # rules it out before the census runs.
        rng = np.random.default_rng(7)
        base = banded((120, 120), range(24)).to_coo()
        extra = longest - 24
        rows = np.r_[base.rows, np.zeros(extra, dtype=np.int64)]
        cols = np.r_[base.cols, np.full(extra, 60)]
        values = np.r_[base.data, rng.standard_normal(extra)]
        matrix = COOMatrix((120, 120), rows, cols, values).to_csr().astype(dtype)
        assert matrix.row_lengths().max() == longest
        assert matrix._spmv_plan()[0] == kind
        assert ("row_ids" in matrix._cache) == (longest <= _DIA_MAX_DIAGONALS)
        check_matvec(matrix, rng.standard_normal(120).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(120).astype(dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("extra, kind", [(0, "dia"), (-1, "csr")])
    def test_fill_floor(self, dtype, extra, kind):
        # The main diagonal of a 40-by-40 matrix, half stored at extra=0.
        rng = np.random.default_rng(8)
        keep = np.arange(0, 40, 2)[: 20 + extra]
        values = rng.standard_normal(len(keep))
        matrix = COOMatrix((40, 40), keep, keep, values).to_csr().astype(dtype)
        assert matrix._spmv_plan()[0] == kind
        check_matvec(matrix, rng.standard_normal(40).astype(dtype))
        check_rmatvec(matrix, rng.standard_normal(40).astype(dtype))


# -- pin ----------------------------------------------------------------


class TestSeedKernelPin:
    @pytest.mark.parametrize("seed", range(4))
    def test_stand_ins(self, seed):
        rng = np.random.default_rng(seed)
        for key in dataset_keys():
            matrix = load_problem(key, seed).matrix
            assert matrix._spmv_plan()[0] == "csr", key
            for dtype in DTYPES:
                operator = matrix.astype(dtype)
                x = with_specials(
                    rng.standard_normal(matrix.n_cols).astype(dtype), rng
                )
                assert_seed_bits(operator, x)
                y = with_specials(
                    rng.standard_normal(matrix.n_rows).astype(dtype), rng
                )
                transpose = operator.transpose()
                assert transpose._spmv_plan()[0] == "csr", key
                with np.errstate(all="ignore"):
                    transposed = operator.rmatvec(y)
                    direct = transpose.matvec(y)
                assert_seed_bits(transpose, y)
                assert transposed.tobytes() == direct.tobytes()

    @given(
        coo_matrices(),
        st.sampled_from(DTYPES),
        st.sampled_from((np.float64, np.float32, np.int64)),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_matrices(self, coo, dtype, x_dtype, seed):
        matrix = coo.to_csr().astype(dtype)
        assume(matrix._spmv_plan()[0] != "dia")
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal(matrix.n_cols) * 4).astype(x_dtype)
        if np.issubdtype(x_dtype, np.floating):
            x = with_specials(x, rng)
        assert_seed_bits(matrix, x)


# -- non-finite operands on the banded plan -----------------------------


def check_nonfinite(matrix: CSRMatrix, x: np.ndarray, transposed: bool) -> None:
    """``matvec`` (or ``rmatvec``) against scipy with specials in ``x``."""
    reference = to_scipy(matrix).T if transposed else to_scipy(matrix)
    magnitude = to_scipy(abs_matrix(matrix))
    if transposed:
        magnitude = magnitude.T
    with np.errstate(all="ignore"):
        actual = matrix.rmatvec(x) if transposed else matrix.matvec(x)
        expected = reference @ x
        magnitudes = magnitude @ np.abs(x.astype(np.float64))
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(np.isnan(actual), np.isnan(expected))
    infinite = np.isinf(expected)
    np.testing.assert_array_equal(actual[infinite], expected[infinite])
    finite = np.isfinite(expected)
    lengths = np.bincount(matrix.indices, minlength=matrix.n_cols) \
        if transposed else matrix.row_lengths()
    assert_within_bound(
        actual[finite], expected[finite], lengths[finite], magnitudes[finite]
    )


def stored_zero_on_a_diagonal(dtype) -> CSRMatrix:
    """``diag(2)`` of 12 rows, the entry (0, 3), and a stored 0 at (6, 6)."""
    indptr = np.r_[0, 2, np.arange(3, 14)]
    indices = np.r_[0, 3, np.arange(1, 12)]
    data = np.full(13, 2.0, dtype=dtype)
    data[1] = 1.0
    data[7] = 0.0
    return CSRMatrix((12, 12), indptr, indices, data)


class TestDiaNonFinite:
    @given(diagonal_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_banded_matrices(self, matrix, seed):
        assume(matrix._spmv_plan()[0] == "dia")
        rng = np.random.default_rng(seed)
        dtype = matrix.data.dtype
        x = with_specials(rng.standard_normal(matrix.n_cols).astype(dtype), rng)
        y = with_specials(rng.standard_normal(matrix.n_rows).astype(dtype), rng)
        check_nonfinite(matrix, x, transposed=False)
        check_nonfinite(matrix, y, transposed=True)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_padding_of_a_partial_diagonal(self, dtype):
        # Diagonal +3 stores only row 0, so rows 1-8 pad it with zeros;
        # x[6] = inf used to turn row 3 into NaN.
        dense = 2.0 * np.eye(12)
        dense[0, 3] = 1.0
        matrix = CSRMatrix.from_dense(dense).astype(dtype)
        assert matrix._spmv_plan()[0] == "dia"
        x = np.ones(12, dtype=dtype)
        x[6] = np.inf
        with np.errstate(invalid="ignore"):
            product = matrix.matvec(x)
        expected = np.full(12, 2.0, dtype=dtype)
        expected[0], expected[6] = 3.0, np.inf
        assert product.tobytes() == expected.tobytes()
        check_nonfinite(matrix, x, transposed=False)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_a_stored_zero_is_not_padding(self, dtype, special):
        matrix = stored_zero_on_a_diagonal(dtype)
        assert matrix._spmv_plan()[0] == "dia"
        x = np.ones(12, dtype=dtype)
        x[6] = special
        with np.errstate(invalid="ignore"):
            product = matrix.matvec(x)
        # 0 * inf is NaN in the row that stores the zero, as in scipy.
        assert np.isnan(product[6])
        assert np.isfinite(np.delete(product, 6)).all()
        check_nonfinite(matrix, x, transposed=False)
        check_nonfinite(matrix, x, transposed=True)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_poisson_stencil(self, dtype):
        # The 5-point stencil's +-1 diagonals pad one row per grid line.
        from repro.datasets.pde import poisson_2d

        matrix = poisson_2d(12).matrix.astype(dtype)
        assert matrix._spmv_plan()[0] == "dia"
        assert any(gaps is not None for gaps in matrix._spmv_plan()[2])
        rng = np.random.default_rng(9)
        for _ in range(4):
            x = with_specials(rng.standard_normal(144).astype(dtype), rng)
            check_nonfinite(matrix, x, transposed=False)
            check_nonfinite(matrix, x, transposed=True)
