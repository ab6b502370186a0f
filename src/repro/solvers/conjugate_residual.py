"""Conjugate Residual method (Table I extension).

CR is CG's sibling for Hermitian (here: real symmetric) matrices that are
*not necessarily definite*: it minimizes the residual 2-norm instead of
the A-norm of the error, which only requires symmetry (Table I's
"Hermitian" row).  One SpMV per iteration — ``A r`` is carried through a
recurrence alongside ``A p``.
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


class ConjugateResidualSolver(IterativeSolver):
    """Conjugate Residual with recurrence-carried ``A r`` and ``A p``."""

    name = "conjugate_residual"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        k = Kernels(matrix)

        r = k.vsub(b, k.spmv(x)).astype(np.float64)
        p = r.copy()
        ar = k.spmv(r)
        ap = ar.copy()
        r_ar = k.dot(r, ar)

        monitor = self._monitor(b)
        # The initial ||r_0|| is not tallied.
        status = monitor.update(float(np.linalg.norm(r)))
        while status is None:
            ap_ap = k.dot(ap, ap)
            if ap_ap < _BREAKDOWN_EPS or abs(r_ar) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            alpha = r_ar / ap_ap
            x = k.axpy(x, self.dtype.type(alpha), p.astype(self.dtype))
            r = k.axmy(r, alpha, ap)
            status = monitor.update(k.norm(r))
            if status is not None:
                break
            ar = k.spmv(r)
            r_ar_next = k.dot(r, ar)
            beta = r_ar_next / r_ar
            p = k.axpy(r, beta, p)
            ap = k.axpy(ar, beta, ap)
            r_ar = r_ar_next
        return self._result(status, x, monitor, k)
