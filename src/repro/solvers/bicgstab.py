"""Bi-Conjugate Gradient Stabilized (paper Algorithm 3).

BiCG-STAB extends CG to non-symmetric systems with two SpMVs per iteration
(``A p_j`` and ``A s_j``) and a local GMRES(1) smoothing step ``omega_j``.
Its known failure modes — rho-breakdown when ``(r_j, r0*)`` vanishes and
omega-breakdown when ``(A s, s)`` vanishes (e.g. for strongly skew-symmetric
operators) — are detected explicitly, because they are the mechanism behind
several of Table II's BiCG-STAB ✗ rows.
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


class BiCGStabSolver(IterativeSolver):
    """BiCG-STAB per Algorithm 3 of the paper.

    The shadow residual ``r0*`` is chosen as ``r_0`` (the algorithm allows
    it to be arbitrary).  Convergence is tracked through the recursive
    residual ``r_{j+1} = s_j - omega_j A s_j``.
    """

    name = "bicgstab"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x0 = self._prepare(matrix, b, x0)
        k = Kernels(matrix)
        cast = self.dtype.type
        # One buffer per vector for the whole solve, updated in place.
        x, r, p, s, ap, a_s = (k.vector() for _ in range(6))
        x[:] = x0

        # Initialize unit: r_0 = b - A x_0 (static SpMV), r0* = r_0, p_0 = r_0.
        k.vsub(b, k.spmv(x, out=ap), out=r)
        r_shadow = r.astype(np.float64)
        p[:] = r

        monitor = self._monitor(b)
        # ||r_0|| and the per-iteration ||s|| below are not tallied.
        status = monitor.update(float(np.linalg.norm(r.astype(np.float64))))
        rho = k.dot(r, r_shadow)
        while status is None:
            if abs(rho) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN  # rho-breakdown
                break
            k.spmv(p, out=ap)
            ap_rs = k.dot(ap, r_shadow)
            if abs(ap_rs) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN  # alpha denominator vanished
                break
            alpha = rho / ap_rs
            k.axmy(r, cast(alpha), ap, out=s)
            s_norm = float(np.linalg.norm(s.astype(np.float64)))
            if monitor.relative(s_norm) <= self.tolerance:
                # Lucky convergence: the alpha step alone solved the system
                # (s = r - alpha A p vanished), so skip the smoothing step.
                k.axpy(x, cast(alpha), p, out=x)
                status = monitor.update(s_norm)
                break
            k.spmv(s, out=a_s)
            as_s = k.dot(a_s, s)
            as_as = k.dot(a_s, a_s)
            if as_as < _BREAKDOWN_EPS:
                # A s = 0 with s != 0 only for singular A; treat as breakdown.
                status = SolveStatus.BREAKDOWN
                break
            omega = as_s / as_as
            k.axpy(x, cast(alpha), p, out=x)
            k.axpy(x, cast(omega), s, out=x)
            k.axmy(s, cast(omega), a_s, out=r)
            status = monitor.update(k.norm(r))
            if status is not None:
                break
            rho_next = k.dot(r, r_shadow)
            if abs(omega) < _BREAKDOWN_EPS:
                # omega-breakdown: the GMRES(1) step stalled (skew operators).
                status = SolveStatus.BREAKDOWN
                break
            beta = (rho_next / rho) * (alpha / omega)
            k.axmy(p, cast(omega), ap, out=p)
            k.axpy(r, cast(beta), p, out=p)
            rho = rho_next
        return self._result(status, x, monitor, k)
