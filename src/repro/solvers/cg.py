"""Conjugate Gradient (paper Algorithm 2).

CG is the workhorse for symmetric positive-definite systems: it minimizes
the ``A``-norm of the error over the growing Krylov subspace, which gives
monotone convergence when the matrix really is SPD.  On non-symmetric or
indefinite matrices the short recurrence loses its optimality and the
residual typically grows — the divergence path that triggers the Solver
Modifier unit in Table II's CG ✗ rows.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    SolveStatus,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.sparse.csr import CSRMatrix

_BREAKDOWN_EPS = 1e-30
"""Denominator magnitude below which the recurrence is declared broken."""


class ConjugateGradientSolver(IterativeSolver):
    """Conjugate Gradient per Algorithm 2 of the paper.

    One SpMV (``A p_j``) per iteration, two inner products and three AXPYs,
    tracked through the recursive residual ``r_{j+1} = r_j - alpha A p_j``
    exactly as the hardware pipeline computes it.
    """

    name = "cg"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        k = Kernels(matrix)
        # One buffer per vector for the whole solve, updated in place.
        r, p, ap = k.vector(), k.vector(), k.vector()

        # Initialize unit: r_0 = b - A x_0, p_0 = r_0 (one static SpMV).
        k.vsub(b, k.spmv(x, out=ap), out=r)
        p[:] = r
        rs = k.dot(r, r)

        monitor = self._monitor(b)
        status = monitor.update(np.sqrt(rs))
        while status is None:
            k.spmv(p, out=ap)
            p_ap = k.dot(p, ap)
            if abs(p_ap) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            alpha = self.dtype.type(rs / p_ap)
            k.axpy(x, alpha, p, out=x)
            k.axmy(r, alpha, ap, out=r)
            rs_next = k.dot(r, r)
            if rs < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            beta = self.dtype.type(rs_next / rs)
            k.axpy(r, beta, p, out=p)
            rs = rs_next
            status = monitor.update(np.sqrt(max(rs, 0.0)))
        return self._result(status, x, monitor, k)
