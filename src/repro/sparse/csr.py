"""Compressed Sparse Row matrix — the accelerator's native input format.

The paper's hardware streams the coefficient matrix in CSR: an ``indptr``
array of row offsets, a column-index stream, and a value stream.  This class
mirrors that layout and provides the operations the rest of the library is
built on: a vectorized SpMV, diagonal extraction for Jacobi, and
transposition (which doubles as CSR→CSC conversion in the Matrix Structure
unit).

Immutability contract
---------------------
``CSRMatrix`` instances are immutable by construction: no method mutates
``indptr``/``indices``/``data`` after ``__init__``, and callers must not
either.  That contract is what makes the internal structure cache sound —
derived views (row ids, row lengths, the diagonal, the transposed matrix,
the off-diagonal split, the SpMV kernel plan) are computed lazily on first
use and reused for the lifetime of the matrix.  Cached vector views are
returned as read-only arrays; copy before writing.  A cast copy
(:meth:`CSRMatrix.astype`) shares the structure arrays and the structure
views already built.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError, ValidationError
from repro.sparse.coo import _index_array, _shape, _value_array, stable_order

_DIA_MAX_DIAGONALS = 24
"""Upper bound on distinct diagonals for the banded SpMV fast path."""

_DIA_MIN_FILL = 0.5
"""Minimum occupied fraction of the banded footprint for the fast path."""

_CACHE_LINE = 64
"""Byte boundary the kernel scratch and the solver vectors start on."""

_STRUCTURE_VIEWS = ("row_lengths", "row_ids", "structure_fingerprint")
"""Cached views that depend on the pattern only, shared by a cast copy."""


def _aligned_empty(size: int, dtype: np.dtype | type) -> np.ndarray:
    """Uninitialized vector of ``size`` entries on a cache-line boundary.

    numpy places a fresh array at a 16-byte multiple, and its AVX-512
    loops write an output that starts off a 64-byte boundary at about
    half speed.  The buffer is over-allocated by one line and sliced to
    the first boundary.
    """
    dtype = np.dtype(dtype)
    nbytes = int(size) * dtype.itemsize
    raw = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % _CACHE_LINE
    # Two slices: numpy leaves an empty slice at its base's address.
    return raw[start:][:nbytes].view(dtype)


def _check_out(out: np.ndarray, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """``out`` if it can take a kernel result of ``shape`` and ``dtype``.

    A kernel writes into ``out`` exactly what its allocating call
    returns, so a vector of another shape or dtype (which numpy would
    broadcast or cast silently) is the caller's error.
    """
    if not isinstance(out, np.ndarray) or out.shape != shape:
        raise ShapeMismatchError(
            f"out must be an array of shape {shape}, got "
            f"{getattr(out, 'shape', type(out).__name__)}"
        )
    if out.dtype != dtype:
        raise ValidationError(f"out must hold {np.dtype(dtype)}, got {out.dtype}")
    if not out.flags.writeable:
        raise ValidationError("out must be writeable")
    return out


class CSRMatrix:
    """Sparse matrix in CSR format.

    Parameters
    ----------
    shape:
        ``(n_rows, n_cols)``.
    indptr:
        ``n_rows + 1`` row offsets into ``indices``/``data``; must start at
        0, end at ``nnz`` and be non-decreasing.
    indices:
        Column index of each stored value.  Within each row the indices must
        be strictly increasing (canonical CSR); the constructor verifies
        this because the symmetry check and Jacobi splitting rely on it.
    data:
        Stored values (real numbers), same length as ``indices``.

    Malformed input (a non-integer shape, index or offset, non-numeric
    values, mismatched lengths) raises
    :class:`~repro.errors.SparseFormatError`.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_cache")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        n_rows, n_cols = _shape(shape)
        indptr = _index_array(indptr, "indptr")
        indices = _index_array(indices, "indices")
        data = _value_array(data)
        if indptr.shape != (n_rows + 1,):
            raise SparseFormatError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {len(indptr)}"
            )
        if len(indptr) and indptr[0] != 0:
            raise SparseFormatError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if indptr[-1] != len(indices) or len(indices) != len(data):
            raise SparseFormatError(
                "indptr[-1], len(indices) and len(data) must agree, got "
                f"{indptr[-1]}, {len(indices)}, {len(data)}"
            )
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise SparseFormatError("column index out of bounds")
        self._check_sorted_rows(indptr, indices)
        self.shape = (n_rows, n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._cache: dict = {}

    @classmethod
    def _from_canonical_parts(
        cls,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> "CSRMatrix":
        """Build a matrix from arrays already known to be canonical CSR.

        Skips the O(nnz) constructor validation; only for internal callers
        whose outputs are canonical by construction (transpose, casts,
        diagonal removal, :meth:`COOMatrix.to_csr`).  ``indptr``/``indices``
        must be int64.
        """
        self = object.__new__(cls)
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._cache = {}
        return self

    @staticmethod
    def _check_sorted_rows(indptr: np.ndarray, indices: np.ndarray) -> None:
        """Verify column indices are strictly increasing within each row."""
        if len(indices) < 2:
            return
        increasing = indices[1:] > indices[:-1]
        # Positions where a new row starts are allowed to decrease.
        row_starts = np.zeros(len(indices), dtype=bool)
        starts = indptr[1:-1]
        row_starts[starts[starts < len(indices)]] = True
        bad = ~increasing & ~row_starts[1:]
        if np.any(bad):
            raise SparseFormatError(
                "column indices must be strictly increasing within each row "
                "(duplicates or unsorted entries found)"
            )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def density(self) -> float:
        """Fraction of entries that are stored (``nnz / (rows * cols)``)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def row_lengths(self) -> np.ndarray:
        """NNZ per row — the quantity the Row Length Trace unit streams.

        Cached; the returned array is read-only.
        """
        lengths = self._cache.get("row_lengths")
        if lengths is None:
            lengths = np.diff(self.indptr)
            lengths.flags.writeable = False
            self._cache["row_lengths"] = lengths
        return lengths

    def row_ids(self) -> np.ndarray:
        """Row index of each stored entry (the COO row stream).

        Cached; the returned array is read-only.
        """
        ids = self._cache.get("row_ids")
        if ids is None:
            ids = np.repeat(np.arange(self.n_rows), self.row_lengths())
            ids.flags.writeable = False
            self._cache["row_ids"] = ids
        return ids

    def _workspace(self, tag: str, size: int, dtype: np.dtype) -> np.ndarray:
        """Reusable scratch buffer keyed by role and dtype.

        Kernel-internal only: contents are clobbered by the next kernel
        call on this matrix, so nothing user-visible may alias it.
        """
        key = ("ws", tag, np.dtype(dtype))
        buf = self._cache.get(key)
        if buf is None or len(buf) < size:
            buf = _aligned_empty(size, dtype)
            self._cache[key] = buf
        return buf[:size]

    def structure_fingerprint(self) -> str:
        """Hex SHA-256 of the sparsity pattern (shape, indptr, indices).

        Values are deliberately excluded: matrices with equal structure
        and different data share the analysis verdict, the SpMV kernel
        plan and the unroll schedule, all of which depend only on the
        pattern.  This is the key the serving plan cache and the batched
        campaign grouper both use.  Cached alongside the other lazy
        structure views (the pattern is immutable, so the hash is too).
        """
        digest = self._cache.get("structure_fingerprint")
        if digest is None:
            hasher = hashlib.sha256()
            hasher.update(f"{self.shape[0]}x{self.shape[1]};".encode())
            hasher.update(
                np.ascontiguousarray(self.indptr, dtype="<i8").tobytes()
            )
            hasher.update(
                np.ascontiguousarray(self.indices, dtype="<i8").tobytes()
            )
            digest = hasher.hexdigest()
            self._cache["structure_fingerprint"] = digest
        return digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.data.dtype})"
        )

    # ------------------------------------------------------------------
    # Compute kernels
    # ------------------------------------------------------------------

    def _spmv_plan(self) -> tuple:
        """Kernel plan for :meth:`matvec`, built once per matrix.

        ``("empty",)`` — no stored entries, the product is all zeros.

        ``("dia", terms, padding)`` — banded fast path: the matrix has few
        distinct diagonals and they are densely occupied (regular stencils
        such as the 5-point Poisson operator).  Each term is
        ``(offset, lo, hi, weights)`` and the product is accumulated as
        contiguous multiply-add sweeps in ascending-offset order, which
        matches the per-row left-to-right accumulation order.  A row of
        the span ``[lo, hi)`` that stores nothing on the diagonal holds a
        zero weight; ``padding`` gives, per term, the positions of those
        rows within the span (``None`` when every row stores an entry).

        ``("csr", starts, nonempty)`` — general gather + segmented
        reduction.  ``nonempty`` is ``None`` when every row has at least
        one entry (the common case), letting the kernel skip the masked
        scatter of results.
        """
        plan = self._cache.get("spmv_plan")
        if plan is None:
            plan = self._build_spmv_plan()
            self._cache["spmv_plan"] = plan
        return plan

    def _build_spmv_plan(self) -> tuple:
        if self.nnz == 0:
            return ("empty",)
        # A canonical row of L entries sits on L distinct diagonals, so a
        # row longer than the cap rules the banded plan out without the
        # diagonal census.
        if self.row_lengths().max() <= _DIA_MAX_DIAGONALS:
            banded = self._diagonal_terms()
            if banded is not None:
                return ("dia", *banded)
        nonempty = self.indptr[:-1] != self.indptr[1:]
        if nonempty.all():
            return ("csr", self.indptr[:-1], None)
        nonempty.flags.writeable = False
        starts = self.indptr[:-1][nonempty]
        return ("csr", starts, nonempty)

    def _diagonal_terms(self) -> tuple | None:
        """The ``dia`` plan's terms and padding, or ``None`` if not banded.

        The diagonals' spans are laid end to end in one buffer of the
        banded footprint, and one scatter writes every stored value at
        its row's place in its diagonal's span; a term's weights are its
        span of that buffer.
        """
        n_rows, n_cols = self.shape
        row_ids = self.row_ids()
        # Each entry's diagonal offset, shifted to a non-negative index.
        index = self.indices - row_ids + (n_rows - 1)
        # Diagonal census: ascending distinct offsets, as np.unique gives,
        # from one O(nnz + n_rows + n_cols) bincount.
        census = np.bincount(index, minlength=n_rows + n_cols - 1)
        occupied = np.flatnonzero(census)
        if len(occupied) > _DIA_MAX_DIAGONALS:
            return None
        distinct = occupied - (n_rows - 1)
        bounds = [
            (max(0, -int(d)), min(n_rows, n_cols - int(d))) for d in distinct
        ]
        footprint = sum(hi - lo for lo, hi in bounds)
        if not footprint or self.nnz < _DIA_MIN_FILL * footprint:
            return None
        first = np.cumsum([0] + [hi - lo for lo, hi in bounds])
        # Per diagonal, what takes a row to its place in the buffer.
        shift = np.zeros(len(census), dtype=np.int64)
        shift[occupied] = first[:-1] - [lo for lo, _ in bounds]
        place = row_ids + shift[index]
        weights = np.zeros(footprint, dtype=self.data.dtype)
        weights[place] = self.data
        weights.flags.writeable = False
        stored = None
        terms, padding = [], []
        for k, (d, (lo, hi)) in enumerate(zip(distinct, bounds)):
            span = slice(first[k], first[k + 1])
            terms.append((int(d), lo, hi, weights[span]))
            if census[occupied[k]] == hi - lo:
                padding.append(None)
                continue
            if stored is None:
                stored = np.zeros(footprint, dtype=bool)
                stored[place] = True
            gaps = np.flatnonzero(~stored[span])
            gaps.flags.writeable = False
            padding.append(gaps)
        return tuple(terms), tuple(padding)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``A @ x``.

        Implemented with gather + segmented reduction
        (:func:`numpy.add.reduceat`), which mirrors the accelerator's
        gather-multiply-reduce pipeline without scipy; densely banded
        matrices instead take a per-diagonal multiply-add fast path.  A
        banded row's padding contributes +0 whatever ``x`` holds there, so
        an infinite or NaN entry of ``x`` reaches only the rows that store
        an entry in its column, as in the ``csr`` path.

        ``out``, when given, receives the product and is returned: a
        vector of ``n_rows`` entries in the product's dtype,
        ``np.result_type(data, x)``, sharing no memory with ``x``.  The
        bits are those of the allocating call.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ShapeMismatchError(
                f"matvec expects a vector of length {self.n_cols}, got {x.shape}"
            )
        out_dtype = np.result_type(self.data, x)
        if out is not None:
            _check_out(out, (self.n_rows,), out_dtype)
            if np.shares_memory(out, x):
                raise ValidationError("matvec's out must not share memory with x")
        plan = self._spmv_plan()
        if plan[0] == "csr":
            return self._csr_product(plan, x, out_dtype, out)
        if out is None:
            out = np.zeros(self.n_rows, dtype=out_dtype)
        else:
            out.fill(0)
        if plan[0] == "empty":
            return out
        _, terms, padding = plan
        scratch = self._workspace("dia", self.n_rows, out_dtype)
        for (offset, lo, hi, weights), gaps in zip(terms, padding):
            seg = scratch[: hi - lo]
            np.multiply(weights, x[lo + offset : hi + offset], out=seg)
            if gaps is not None:
                # +0 leaves a finite row's bits as they were: the sum
                # starts at +0, which round-to-nearest never turns -0.
                seg[gaps] = 0
            np.add(out[lo:hi], seg, out=out[lo:hi])
        return out

    def _csr_product(
        self,
        plan: tuple,
        x: np.ndarray,
        out_dtype: np.dtype,
        out: np.ndarray | None,
    ) -> np.ndarray:
        """The ``csr`` plan's gather, multiply and segmented reduction."""
        _, starts, nonempty = plan
        products = self._workspace("products", self.nnz, out_dtype)
        # The products of ``data * x[indices]``, gathered without numpy's
        # buffered bounds-checked path: the constructor has validated every
        # index, so ``wrap`` never wraps.  ``take`` wants ``out``'s dtype,
        # and widening ``x`` first is the cast the multiply would make.
        if x.dtype != out_dtype:
            x = x.astype(out_dtype)
        x.take(self.indices, out=products, mode="wrap")
        np.multiply(self.data, products, out=products)
        # ``reduceat`` allocates its result, which is then copied into
        # ``out``: reducing into a given ``out`` ran 11 % slower over one
        # float32 SpMV of each of the 25 stand-ins (AVX-512 x86 host).
        sums = np.add.reduceat(products, starts)
        if nonempty is None:
            if out is None:
                return sums
            np.copyto(out, sums)
            return out
        if out is None:
            out = np.zeros(self.n_rows, dtype=out_dtype)
        else:
            out.fill(0)
        out[nonempty] = sums
        return out

    def rmatvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transposed product ``A.T @ x`` via the cached transpose.

        Delegating to ``A.T.matvec`` turns the per-call ``np.add.at``
        scatter into a one-time transposition (a radix pass) plus the same
        gather + ``reduceat`` kernel as :meth:`matvec`, which is what
        makes BiCG's shadow recurrence affordable.  ``out`` is as in
        :meth:`matvec`, with ``n_cols`` entries.
        """
        x = np.asarray(x)
        if x.shape != (self.n_rows,):
            raise ShapeMismatchError(
                f"rmatvec expects a vector of length {self.n_rows}, got {x.shape}"
            )
        return self.transpose().matvec(x, out=out)

    # ------------------------------------------------------------------
    # Structure manipulation
    # ------------------------------------------------------------------

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored).

        Cached; the returned array is read-only.
        """
        diag = self._cache.get("diagonal")
        if diag is None:
            n = min(self.shape)
            diag = np.zeros(n, dtype=self.data.dtype)
            on_diag = (self.row_ids() == self.indices) & (self.indices < n)
            diag[self.indices[on_diag]] = self.data[on_diag]
            diag.flags.writeable = False
            self._cache["diagonal"] = diag
        return diag

    def without_diagonal(self) -> "CSRMatrix":
        """Copy with the main diagonal removed (the ``L + U`` of Jacobi).

        Cached: repeated calls return the same matrix object.
        """
        off = self._cache.get("without_diagonal")
        if off is None:
            row_of = self.row_ids()
            keep = row_of != self.indices
            new_counts = np.bincount(row_of[keep], minlength=self.n_rows)
            indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
            np.cumsum(new_counts, out=indptr[1:])
            off = CSRMatrix._from_canonical_parts(
                self.shape, indptr, self.indices[keep], self.data[keep]
            )
            self._cache["without_diagonal"] = off
        return off

    def transpose(self) -> "CSRMatrix":
        """Return ``A.T`` as a CSR matrix.

        This is the same data shuffle as converting to CSC and re-reading the
        arrays as CSR, which is exactly how the paper's Matrix Structure unit
        produces the CSC view for its symmetry comparison.

        Cached: repeated calls return the same matrix object, and the
        transpose links back so ``A.T.T is A``.
        """
        t = self._cache.get("transpose")
        if t is None:
            n_rows, n_cols = self.shape
            counts = np.bincount(self.indices, minlength=n_cols)
            indptr = np.zeros(n_cols + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            # Stable order by column keeps rows increasing per column.
            order = stable_order(self.indices, n_cols)
            t = CSRMatrix._from_canonical_parts(
                (n_cols, n_rows), indptr, self.row_ids()[order],
                self.data[order],
            )
            t._cache["transpose"] = self
            self._cache["transpose"] = t
        return t

    def astype(self, dtype: np.dtype | type) -> "CSRMatrix":
        """Copy with values cast to ``dtype`` (e.g. ``np.float32``).

        As in :meth:`with_data`, the (immutable) structure arrays are
        shared; so are the structure views already cached (row lengths,
        row ids, the structure fingerprint), which the copy would
        otherwise build again.
        """
        cast = type(self)._from_canonical_parts(
            self.shape, self.indptr, self.indices, self.data.astype(dtype)
        )
        for key in _STRUCTURE_VIEWS:
            if key in self._cache:
                cast._cache[key] = self._cache[key]
        return cast

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Same sparsity pattern, new stored values.

        The structure arrays are shared (they are immutable); only the
        value stream is replaced.  Used by Jacobi to build
        ``T = D^-1 (L + U)`` without revalidating the pattern.
        """
        data = np.asarray(data)
        if data.shape != self.data.shape:
            raise SparseFormatError(
                f"with_data expects {self.data.shape[0]} values, "
                f"got {data.shape}"
            )
        return CSRMatrix._from_canonical_parts(
            self.shape, self.indptr, self.indices, data
        )

    # ------------------------------------------------------------------
    # Conversions and comparisons
    # ------------------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        dense[self.row_ids(), self.indices] = self.data
        return dense

    def to_coo(self) -> "COOMatrix":
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            self.shape, self.row_ids().copy(), self.indices.copy(),
            self.data.copy(),
        )

    def structurally_equal(self, other: "CSRMatrix") -> bool:
        """True when both matrices store exactly the same coordinates."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-6) -> bool:
        """Structural equality plus value closeness."""
        return self.structurally_equal(other) and np.allclose(
            self.data, other.data, rtol=rtol, atol=rtol
        )

    @staticmethod
    def from_dense(dense: np.ndarray) -> "CSRMatrix":
        from repro.sparse.coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    @staticmethod
    def identity(n: int, dtype: np.dtype | type = np.float64) -> "CSRMatrix":
        """The ``n``-by-``n`` identity matrix."""
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        return CSRMatrix((n, n), indptr, indices, np.ones(n, dtype=dtype))

