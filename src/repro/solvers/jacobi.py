"""Jacobi iterative method in matrix form (paper Algorithm 1).

The paper is explicit that the hardware runs the *matrix form* of Jacobi:

- split ``A = D + (L + U)``,
- precompute ``T = D^-1 (L + U)`` and ``c = D^-1 b``,
- iterate ``x_{j+1} = c - T x_j``.

The per-iteration SpMV is ``T x_j``, so Jacobi's sparse kernel has the same
NNZ/row profile as ``A`` minus its diagonal.  The residual the hardware can
check for free is ``b - A x_j = D (x_{j+1} - x_j)`` — a diagonal scaling of
the iterate delta — which avoids a second SpMV per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.sparse.csr import CSRMatrix


class JacobiSolver(IterativeSolver):
    """Matrix-form Jacobi iteration.

    Converges for every initial guess iff the spectral radius of
    ``T = D^-1 (L + U)`` is below one; strict diagonal dominance of ``A``
    (Eq. 1) is the sufficient condition the Matrix Structure unit checks.
    """

    name = "jacobi"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        diag = matrix.diagonal().astype(self.dtype)
        if np.any(diag == 0):
            # A zero diagonal makes D^-1 undefined: immediate breakdown.
            return self._breakdown(x)
        inv_diag = (1.0 / diag).astype(self.dtype)
        off_diag = matrix.without_diagonal()
        # T = D^-1 (L + U): scale each stored row of (L+U) by 1/d_i.
        # ``row_ids``/``without_diagonal`` are cached on the matrix, so
        # repeated solves of the same operator skip the structure work.
        row_of = off_diag.row_ids()
        t_matrix = off_diag.with_data(
            (off_diag.data * inv_diag[row_of]).astype(self.dtype)
        )
        c = (inv_diag * b).astype(self.dtype)
        k = Kernels(matrix)
        # One buffer per vector for the whole solve; x and x_next swap.
        x_next, work = k.vector(), k.vector()

        monitor = self._monitor(b)
        status = None
        while status is None:
            k.vsub(c, k.spmv(x, t_matrix, out=work), out=x_next)
            # Residual b - A x_j = D (x_{j+1} - x_j); diagonal scale + norm.
            k.vsub(x_next, x, out=work)
            residual = k.norm(k.scale(diag, work, out=work))
            x, x_next = x_next, x
            status = monitor.update(residual)
        return self._result(status, x, monitor, k)
