"""Coordinate (triplet) sparse format.

COO is the natural *build* format: generators and dataset synthesizers emit
``(row, col, value)`` triplets and convert once to CSR for compute.  The
class stores three parallel numpy arrays and knows how to canonicalize
itself (sort by row then column, merge duplicates, drop explicit zeros).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError

_DIGIT_BITS = 16

_MAX_KEY = np.iinfo(np.int64).max
"""Largest row-major key ``row * n_cols + col`` int64 holds."""


def _shape(shape: tuple[int, int]) -> tuple[int, int]:
    """``shape`` as two Python ints in ``[0, int64 max]``.

    The index arrays are int64, so a larger side could not be indexed;
    numpy would fail on it with a bare ``OverflowError``.
    """
    try:
        n_rows, n_cols = (operator.index(side) for side in shape)
    except (TypeError, ValueError):
        raise SparseFormatError(
            f"shape must be two integers, got {shape!r}"
        ) from None
    if n_rows < 0 or n_cols < 0:
        raise SparseFormatError(f"negative shape {shape}")
    if max(n_rows, n_cols) > _MAX_KEY:
        raise SparseFormatError(f"shape {shape} exceeds the int64 range")
    return n_rows, n_cols


def _index_array(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` as a 1-D int64 array; integer input costs a dtype test.

    Any other dtype is refused unless empty: a float or NaN coordinate
    would otherwise be truncated, or raise numpy's own error.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iu" and array.size:
        raise SparseFormatError(f"{name} must be integers, got {array.dtype}")
    if array.ndim != 1:
        raise SparseFormatError(f"{name} must be 1-D, got shape {array.shape}")
    return array.astype(np.int64, copy=False)


def _value_array(values: np.ndarray) -> np.ndarray:
    """``values`` as a 1-D array of real numbers (bool, integer or float)."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise SparseFormatError(f"data must be real numbers, got {array.dtype}")
    if array.ndim != 1:
        raise SparseFormatError(f"data must be 1-D, got shape {array.shape}")
    return array


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    Least-significant-digit radix: one stable argsort per 16-bit digit,
    each over ``uint16`` digits, which numpy sorts with a counting
    (radix) sort.  Every pass is O(len(keys)); there are
    ``ceil(log2(bound) / 16)`` of them and nothing allocated depends on
    ``bound``.  Stability of each pass is what makes the digit order
    exact: ties on a higher digit keep the order the lower digits set.
    """
    keys = np.asarray(keys)
    order = np.arange(len(keys))
    for shift in range(0, max(bound - 1, 0).bit_length(), _DIGIT_BITS):
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order


@dataclass(frozen=True)
class COOMatrix:
    """Sparse matrix in coordinate format.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    rows, cols:
        Integer arrays of equal length with the coordinates of each stored
        entry.
    data:
        Real-valued (usually floating-point) array of stored values, same
        length as the coordinate arrays.

    The constructor validates the shape, dtypes, bounds and lengths and
    raises :class:`~repro.errors.SparseFormatError` on malformed input;
    use :meth:`canonical` to obtain a duplicate-free, sorted copy.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = _shape(self.shape)
        rows = _index_array(self.rows, "rows")
        cols = _index_array(self.cols, "cols")
        data = _value_array(self.data)
        if not (len(rows) == len(cols) == len(data)):
            raise SparseFormatError(
                "rows, cols and data must have equal length, got "
                f"{len(rows)}, {len(cols)}, {len(data)}"
            )
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise SparseFormatError("row index out of bounds")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise SparseFormatError("column index out of bounds")
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @property
    def nnz(self) -> int:
        """Number of stored entries (before canonicalization)."""
        return len(self.data)

    def canonical(self) -> "COOMatrix":
        """Return a sorted, duplicate-summed, zero-free copy.

        One pass over the row-major keys ``row * n_cols + col`` tells
        whether the triplets are already in order, as every generator
        emits them.  Triplets that are not, and any shape whose keys
        would overflow int64, take two stable radix passes (equal to
        ``np.lexsort((cols, rows))``).  Repeated coordinates are summed in
        input order, a merge that runs only when one repeats: skipping it
        leaves each value as ``0 + v`` would, but for the sign of a zero,
        and zeros of both signs are dropped.  The returned arrays share
        no memory with this matrix's.
        """
        if self.nnz == 0:
            return self
        n_rows, n_cols = self.shape
        rows, cols, data = self.rows, self.cols, self.data
        steps = None
        if n_rows * n_cols <= _MAX_KEY:
            steps = np.diff(rows * n_cols + cols)
        if steps is not None and (len(steps) == 0 or steps.min() >= 0):
            distinct = steps != 0
        else:
            # Two stable passes, minor key first.
            order = stable_order(cols, n_cols)
            order = order[stable_order(rows[order], n_rows)]
            rows, cols, data = rows[order], cols[order], data[order]
            distinct = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not distinct.all():
            # Merge duplicate coordinates by summation.
            new_group = np.empty(len(rows), dtype=bool)
            new_group[0] = True
            new_group[1:] = distinct
            group_ids = np.cumsum(new_group) - 1
            summed = np.zeros(group_ids[-1] + 1, dtype=data.dtype)
            np.add.at(summed, group_ids, data)
            rows, cols, data = rows[new_group], cols[new_group], summed
        nonzero = data != 0
        if not nonzero.all():
            rows, cols, data = rows[nonzero], cols[nonzero], data[nonzero]
        elif rows is self.rows:
            # Nothing was gathered, so nothing was copied yet.
            rows, cols, data = rows.copy(), cols.copy(), data.copy()
        return COOMatrix(self.shape, rows, cols, data)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (for tests and small examples)."""
        dense = np.zeros(self.shape, dtype=np.result_type(self.data, np.float32))
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR, canonicalizing first.

        Triplets already in row-major order cost one check pass and no
        sort (see :meth:`canonical`).  The result shares no memory with
        this matrix's arrays.
        """
        from repro.sparse.csr import CSRMatrix

        canon = self.canonical()
        n_rows, _ = self.shape
        counts = np.bincount(canon.rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # ``canonical`` returns fresh, ordered, duplicate-free int64 arrays.
        return CSRMatrix._from_canonical_parts(
            self.shape, indptr, canon.cols, canon.data
        )

    @staticmethod
    def from_dense(dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from the non-zero entries of a dense array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return COOMatrix(dense.shape, rows, cols, dense[rows, cols])
