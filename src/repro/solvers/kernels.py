"""The kernel layer every solver runs on.

Acamar executes a solver as calls on a few fixed units: the Dynamic SpMV
kernel beside dense dot, norm, AXPY, vector-add and scale units (the
paper's Algorithms 1–3 read as calls on them).  :class:`Kernels` is that
unit set for one solve.  Each method computes its result and records
exactly one entry in the solve's :class:`~repro.solvers.base.OpCounter`,
the tally the FPGA and GPU cost models price, so the modeled kernel mix
is the work the solver actually did.  This module is the only place that
records a tally.

The SpMV and transposed-SpMV kernels read their operand as the fabric's
fp32 operators do (docs/modeling.md, "Arithmetic"): every subnormal, in
the solver precision, is set to zero before the product, in place in the
array the solver-precision cast returns.  That array is the caller's own
vector when it already holds the solver precision, so the solver goes on
with the flushed vector; a wider vector is left as it is and only its
cast copy is flushed.  The flush is neither tallied nor priced.  The
dense units and the sweep keep the host's gradual underflow.

The sparse kernels (SpMV, transposed SpMV and the Gauss-Seidel/SOR sweep,
which is priced as one SpMV pass) run inside the ``kernel.spmv`` /
``kernel.rmatvec`` telemetry spans.  The dense kernels record no span: a
Table II campaign makes about five dense calls per SpMV, each 5-8 µs on
a 2,048-row stand-in, and a span costs about 1 µs under an active
collector (0.3 µs without one), a sixth or more of such a call.

Work a solver does outside these methods is not tallied, and so not
priced.

On the fabric each solver vector lives in one fixed buffer for the whole
solve.  :meth:`Kernels.vector` hands a solver such a buffer, zeroed, in
the solver precision and on a 64-byte cache-line boundary, and the
SpMV, transposed-SpMV, AXPY, vector-add and scale kernels take an
optional ``out`` that receives the result and is returned.  ``out`` must
hold the shape and dtype the allocating call returns, and its bits are
that call's.  CG, BiCG-STAB and Jacobi update their vectors this way;
the other solvers let each call allocate its result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import telemetry as tm
from repro.solvers.base import OpCounter
from repro.solvers.preconditioners import Preconditioner
from repro.sparse.csr import CSRMatrix, _aligned_empty, _check_out


class Kernels:
    """The counting kernels of one solve.

    ``matrix`` is the operator in the solver precision; the SpMV kernels
    run in that precision.  The dense reductions (:meth:`dot`,
    :meth:`norm`) accumulate in float64, casting their operands into
    scratch vectors allocated once here rather than once per call; the
    SpMV operand flush runs over one more, in the solver precision, and
    an AXPY forms ``alpha x`` in another.  Every scratch vector starts
    on a cache line.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        self.matrix = matrix
        self.dtype = matrix.data.dtype
        self.ops = OpCounter()
        n = matrix.shape[0]
        self._left = _aligned_empty(n, np.float64)
        self._right = _aligned_empty(n, np.float64)
        self._tiny = np.finfo(self.dtype).tiny
        self._magnitude = _aligned_empty(n, self.dtype)
        self._scaled = _aligned_empty(n, self.dtype)
        self._weak_scalars = (float, int, self.dtype.type)

    def vector(self) -> np.ndarray:
        """A zeroed vector of the solve's length, in the solver precision.

        It starts on a 64-byte cache-line boundary.  A solver takes its
        vectors here once per solve and updates them through ``out``.
        """
        v = _aligned_empty(self.matrix.shape[0], self.dtype)
        v.fill(0)
        return v

    @staticmethod
    def _elementwise(
        ufunc: np.ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray | None
    ) -> np.ndarray:
        """``ufunc(a, b)``, into ``out`` when given.

        ``out`` must hold the allocating call's shape and dtype, which is
        checked first, since numpy would broadcast or cast into it
        silently; a read-only ``out`` is reported through the same check
        when the ufunc raises.
        """
        if out is None:
            return ufunc(a, b)
        if (
            type(out) is not np.ndarray
            or not out.dtype == a.dtype == b.dtype
            or out.shape != a.shape
        ):
            _check_out(
                out, np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b)
            )
        try:
            ufunc(a, b, out=out)
        except ValueError:
            _check_out(
                out, np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b)
            )
            raise
        return out

    def _times(self, alpha: float | np.floating, x: np.ndarray) -> np.ndarray:
        """``alpha * x``, in the product scratch when that is its dtype.

        A Python number (weak under numpy's promotion rules) or a scalar
        of the solver precision leaves a solver-precision ``x``'s dtype
        as it is; any other scalar gets a fresh product in the dtype
        numpy gives it, so a float64 ``alpha`` is not rounded to float32.
        """
        if (
            x.dtype == self.dtype
            and type(alpha) in self._weak_scalars
            and x.shape == self._scaled.shape
        ):
            return np.multiply(alpha, x, out=self._scaled)
        return alpha * x

    @staticmethod
    def _wide(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        if v.dtype == np.float64:
            return v
        np.copyto(scratch, v)
        return scratch

    # -- the Dynamic SpMV kernel ----------------------------------------

    def _operand(self, v: np.ndarray) -> np.ndarray:
        """``v`` cast to the solver precision, subnormals flushed in place.

        A flushed subnormal keeps its sign (``-0.0``); zeros, normals,
        infinities and NaNs keep their bytes.
        """
        operand = v.astype(self.dtype, copy=False)
        magnitude = np.abs(operand, out=self._magnitude)
        # The entry argmin picks is the least magnitude or a NaN; ``not >=``
        # sends both to the masked pass.  An empty operand has no argmin.
        if operand.size and not magnitude[magnitude.argmin()] >= self._tiny:
            keep = np.greater_equal(magnitude, self._tiny, out=magnitude)
            np.multiply(operand, keep, out=operand)
        return operand

    def spmv(
        self,
        v: np.ndarray,
        operator: CSRMatrix | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``A v`` in the solver precision, returned in ``v``'s precision.

        The operand is flushed first, in place: every subnormal of ``v``
        in the solver precision becomes zero, as the fabric's fp32
        operators read it.  A float32 ``v`` in a float32 solve is
        flushed itself, so the solver goes on with the flushed vector;
        a float64 ``v`` stays untouched and only its cast copy is
        flushed.  The flush is neither tallied nor priced.

        ``operator`` defaults to the solve's matrix; Jacobi's ``T`` and
        multicolor Gauss-Seidel's off-diagonal part pass their own.
        ``out`` receives the product, through ``CSRMatrix.matvec``'s own
        ``out`` when the operator holds ``v``'s precision.
        """
        matrix = self.matrix if operator is None else operator
        with tm.span("kernel.spmv"):
            product = self._product(matrix, matrix.matvec, v, out)
        self.ops.record("spmv", matrix.nnz)
        return product

    def rmatvec(
        self, v: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``A^T v`` in the solver precision, returned in ``v``'s precision.

        The operand is flushed in place, and ``out`` taken, as in
        :meth:`spmv`.
        """
        with tm.span("kernel.rmatvec"):
            product = self._product(self.matrix, self.matrix.rmatvec, v, out)
        self.ops.record("spmv", self.matrix.nnz)
        return product

    def _product(
        self,
        matrix: CSRMatrix,
        apply: Callable[..., np.ndarray],
        v: np.ndarray,
        out: np.ndarray | None,
    ) -> np.ndarray:
        """``apply`` of the flushed ``v``, in ``v``'s precision."""
        operand = self._operand(v)
        if matrix.data.dtype == operand.dtype == v.dtype:
            return apply(operand, out=out)
        product = apply(operand).astype(v.dtype, copy=False)
        if out is None:
            return product
        np.copyto(_check_out(out, product.shape, product.dtype), product)
        return out

    def sweep(
        self,
        x: np.ndarray,
        b: np.ndarray,
        diag: np.ndarray,
        omega: float | None = None,
    ) -> None:
        """One forward Gauss-Seidel sweep over float64 ``x``, in place.

        With ``omega`` each row blends the Gauss-Seidel value with the
        old one (SOR).  A sweep streams the matrix once, so it is priced
        as one SpMV pass.
        """
        matrix = self.matrix
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        with tm.span("kernel.spmv"):
            for i in range(len(x)):
                lo, hi = indptr[i], indptr[i + 1]
                cols = indices[lo:hi]
                vals = data[lo:hi].astype(np.float64)
                off = cols != i
                acc = float(vals[off] @ x[cols[off]])
                value = (b[i] - acc) / diag[i]
                if omega is not None:
                    value = (1.0 - omega) * x[i] + omega * value
                x[i] = value
        self.ops.record("spmv", matrix.nnz)

    # -- dense units ----------------------------------------------------

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """``a . b`` accumulated in float64."""
        left = self._wide(a, self._left)
        right = left if b is a else self._wide(b, self._right)
        value = float(left @ right)
        self.ops.record("dot", len(a))
        return value

    def norm(self, v: np.ndarray) -> float:
        """``||v||_2`` accumulated in float64."""
        value = float(np.linalg.norm(self._wide(v, self._left)))
        self.ops.record("norm", len(v))
        return value

    def axpy(
        self,
        y: np.ndarray,
        alpha: float | np.floating,
        x: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``y + alpha x``, into ``out`` when given.

        The two roundings of ``y + alpha * x``: ``alpha x`` in its own
        dtype, in a scratch vector, then the sum.
        """
        out = self._elementwise(np.add, y, self._times(alpha, x), out)
        self.ops.record("axpy", len(out))
        return out

    def axmy(
        self,
        y: np.ndarray,
        alpha: float | np.floating,
        x: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``y - alpha x`` on the AXPY unit, into ``out`` when given.

        Not :meth:`axpy` with ``-alpha``: the two differ in the sign bit
        of a NaN, which a diverged iterate can hold.
        """
        out = self._elementwise(np.subtract, y, self._times(alpha, x), out)
        self.ops.record("axpy", len(out))
        return out

    def vsub(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a - b`` on the vector-add unit (tallied as ``vadd``)."""
        out = self._elementwise(np.subtract, a, b, out)
        self.ops.record("vadd", len(out))
        return out

    def scale(
        self, d: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Diagonal scaling ``d * v``, into ``out`` when given."""
        out = self._elementwise(np.multiply, d, v, out)
        self.ops.record("scale", len(out))
        return out

    def divide(self, v: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Diagonal solve ``v / d`` on the scale unit."""
        out = v / d
        self.ops.record("scale", len(out))
        return out

    def precondition(
        self, preconditioner: Preconditioner, r: np.ndarray
    ) -> np.ndarray:
        """``M^-1 r``, priced as a scale over the apply's element count."""
        z = preconditioner.apply(r)
        self.ops.record(
            "scale", max(1, preconditioner.apply_cost_elements())
        )
        return z
