"""Preconditioned Conjugate Gradient (Table I extension).

PCG applies CG to the symmetrically preconditioned system; the
preconditioner is pluggable (:mod:`repro.solvers.preconditioners`):
``jacobi`` (diagonal, the default — one scale per iteration), ``ssor``,
or ``ilu0``.  Diagonal preconditioning pays off exactly on the badly
row-scaled SPD matrices several Table II stand-ins emulate; ILU(0) is
the classic stronger choice for PDE meshes.  (The paper's Table I lists
preconditioned CG with a "Negative Definite" criterion; the standard
requirement implemented and tested here is symmetric positive
definiteness of both ``A`` and ``M``.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverBreakdownError
from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    SolveStatus,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.solvers.preconditioners import make_preconditioner
from repro.sparse.csr import CSRMatrix

_BREAKDOWN_EPS = 1e-30


class PreconditionedCGSolver(IterativeSolver):
    """CG with a pluggable preconditioner (default: Jacobi diagonal)."""

    name = "pcg"

    def __init__(self, preconditioner: str = "jacobi", **kwargs) -> None:
        super().__init__(**kwargs)
        self.preconditioner_name = preconditioner

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        try:
            preconditioner = make_preconditioner(
                self.preconditioner_name, matrix
            )
        except SolverBreakdownError:
            # Setup failure (zero diagonal / zero pivot): clean breakdown.
            return self._breakdown(x)
        if self.preconditioner_name == "jacobi" and np.any(
            matrix.diagonal() < 0
        ):
            # A negative diagonal means A is not SPD; the preconditioned
            # operator would be indefinite by construction.
            return self._breakdown(x)
        k = Kernels(matrix)

        r = k.vsub(b, k.spmv(x)).astype(np.float64)
        z = k.precondition(preconditioner, r)
        p = z.copy()
        rz = k.dot(r, z)

        monitor = self._monitor(b)
        # The initial ||r_0|| is not tallied.
        status = monitor.update(float(np.linalg.norm(r)))
        while status is None:
            ap = k.spmv(p)
            p_ap = k.dot(p, ap)
            if abs(p_ap) < _BREAKDOWN_EPS or abs(rz) < _BREAKDOWN_EPS:
                status = SolveStatus.BREAKDOWN
                break
            alpha = rz / p_ap
            x = k.axpy(x, self.dtype.type(alpha), p.astype(self.dtype))
            r = k.axmy(r, alpha, ap)
            status = monitor.update(k.norm(r))
            if status is not None:
                break
            z = k.precondition(preconditioner, r)
            rz_next = k.dot(r, z)
            beta = rz_next / rz
            p = k.axpy(z, beta, p)
            rz = rz_next
        return self._result(status, x, monitor, k)
