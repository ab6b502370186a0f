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
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as tm
from repro.solvers.base import OpCounter
from repro.solvers.preconditioners import Preconditioner
from repro.sparse.csr import CSRMatrix


class Kernels:
    """The counting kernels of one solve.

    ``matrix`` is the operator in the solver precision; the SpMV kernels
    run in that precision.  The dense reductions (:meth:`dot`,
    :meth:`norm`) accumulate in float64, casting their operands into
    scratch vectors allocated once here rather than once per call; the
    SpMV operand flush runs over one more, in the solver precision.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        self.matrix = matrix
        self.dtype = matrix.data.dtype
        self.ops = OpCounter()
        n = matrix.shape[0]
        self._left = np.empty(n, dtype=np.float64)
        self._right = np.empty(n, dtype=np.float64)
        self._tiny = np.finfo(self.dtype).tiny
        self._magnitude = np.empty(n, dtype=self.dtype)

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
        self, v: np.ndarray, operator: CSRMatrix | None = None
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
        """
        matrix = self.matrix if operator is None else operator
        with tm.span("kernel.spmv"):
            product = matrix.matvec(self._operand(v))
        self.ops.record("spmv", matrix.nnz)
        return product.astype(v.dtype, copy=False)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``A^T v`` in the solver precision, returned in ``v``'s precision.

        The operand is flushed in place as in :meth:`spmv`.
        """
        with tm.span("kernel.rmatvec"):
            product = self.matrix.rmatvec(self._operand(v))
        self.ops.record("spmv", self.matrix.nnz)
        return product.astype(v.dtype, copy=False)

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
        self, y: np.ndarray, alpha: float | np.floating, x: np.ndarray
    ) -> np.ndarray:
        """``y + alpha x``."""
        out = y + alpha * x
        self.ops.record("axpy", len(out))
        return out

    def axmy(
        self, y: np.ndarray, alpha: float | np.floating, x: np.ndarray
    ) -> np.ndarray:
        """``y - alpha x`` on the AXPY unit.

        Not :meth:`axpy` with ``-alpha``: the two differ in the sign bit
        of a NaN, which a diverged iterate can hold.
        """
        out = y - alpha * x
        self.ops.record("axpy", len(out))
        return out

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a - b`` on the vector-add unit (tallied as ``vadd``)."""
        out = a - b
        self.ops.record("vadd", len(out))
        return out

    def scale(self, d: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Diagonal scaling ``d * v``."""
        out = d * v
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
