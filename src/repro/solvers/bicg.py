"""Bi-Conjugate Gradient (Table I extension).

BiCG is the un-stabilized ancestor of BiCG-STAB: it runs two coupled
Lanczos recurrences, one with ``A`` and one with ``A^T``, and converges
for general non-symmetric systems at the price of an extra transposed
SpMV per iteration and a famously erratic residual.  It is included
because the paper's Table I lists it (and Two-Sided Lanczos, whose
recurrences it shares); comparing it against BiCG-STAB on the same
workloads shows exactly what the stabilization step buys.
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


class BiCGSolver(IterativeSolver):
    """Bi-Conjugate Gradient with ``r0* = r0`` shadow residual.

    Per iteration: one SpMV with ``A`` (search direction) and one with
    ``A^T`` (shadow direction), two inner products, four AXPYs.
    """

    name = "bicg"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        k = Kernels(matrix)
        cast = self.dtype.type

        r = k.vsub(b, k.spmv(x))
        r_shadow = r.astype(np.float64)
        p = r.copy()
        p_shadow = r_shadow.copy()

        monitor = self._monitor(b)
        # ||r_0|| and the p_shadow update below are not tallied.
        status = monitor.update(float(np.linalg.norm(r.astype(np.float64))))
        rho = k.dot(r, r_shadow)
        while status is None:
            if abs(rho) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            ap = k.spmv(p)
            atp = k.rmatvec(p_shadow)
            denom = k.dot(p_shadow, ap)
            if abs(denom) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            alpha = rho / denom
            x = k.axpy(x, cast(alpha), p)
            r = k.axmy(r, cast(alpha), ap)
            r_shadow = k.axmy(r_shadow, alpha, atp)
            status = monitor.update(k.norm(r))
            if status is not None:
                break
            rho_next = k.dot(r, r_shadow)
            beta = rho_next / rho
            p = k.axpy(r, cast(beta), p)
            p_shadow = r_shadow + beta * p_shadow
            rho = rho_next
        return self._result(status, x, monitor, k)
