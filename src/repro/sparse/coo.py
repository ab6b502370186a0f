"""Coordinate (triplet) sparse format.

COO is the natural *build* format: generators and dataset synthesizers emit
``(row, col, value)`` triplets and convert once to CSR for compute.  The
class stores three parallel numpy arrays and knows how to canonicalize
itself (sort by row then column, merge duplicates, drop explicit zeros).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError

_DIGIT_BITS = 16


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
        Floating-point array of stored values, same length as the
        coordinate arrays.

    The constructor validates bounds and lengths; use :meth:`canonical` to
    obtain a duplicate-free, sorted copy.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        data = np.asarray(self.data)
        if not (len(rows) == len(cols) == len(data)):
            raise SparseFormatError(
                "rows, cols and data must have equal length, got "
                f"{len(rows)}, {len(cols)}, {len(data)}"
            )
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise SparseFormatError("row index out of bounds")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise SparseFormatError("column index out of bounds")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    @property
    def nnz(self) -> int:
        """Number of stored entries (before canonicalization)."""
        return len(self.data)

    def canonical(self) -> "COOMatrix":
        """Return a sorted, duplicate-summed, zero-free copy."""
        if self.nnz == 0:
            return self
        # Two stable passes, minor key first: equal to
        # ``np.lexsort((cols, rows))`` in linear time.
        n_rows, n_cols = self.shape
        order = stable_order(self.cols, n_cols)
        order = order[stable_order(self.rows[order], n_rows)]
        rows, cols, data = self.rows[order], self.cols[order], self.data[order]
        # Merge duplicate coordinates by summation.
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
            self.shape, keep_rows[nonzero], keep_cols[nonzero], summed[nonzero]
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (for tests and small examples)."""
        dense = np.zeros(self.shape, dtype=np.result_type(self.data, np.float32))
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def to_csr(self) -> "CSRMatrix":
        """Convert to CSR, canonicalizing first."""
        from repro.sparse.csr import CSRMatrix

        canon = self.canonical()
        n_rows, _ = self.shape
        counts = np.bincount(canon.rows, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(self.shape, indptr, canon.cols.copy(), canon.data.copy())

    @staticmethod
    def from_dense(dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from the non-zero entries of a dense array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return COOMatrix(dense.shape, rows, cols, dense[rows, cols])
