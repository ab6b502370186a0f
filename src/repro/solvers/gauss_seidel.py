"""Gauss-Seidel iteration (Table I extension).

Gauss-Seidel improves on Jacobi by consuming freshly-updated components
within the same sweep: ``x_i <- (b_i - sum_{j<i} a_ij x_j^new -
sum_{j>i} a_ij x_j^old) / a_ii``.  Like Jacobi it is guaranteed to converge
for strictly diagonally dominant matrices (Table I), and additionally for
symmetric positive-definite ones.  It is inherently sequential across rows,
which is exactly why the paper's hardware prefers the matrix-form Jacobi;
it is included here as one of the Table I methods for completeness and for
the criteria/examples modules.
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


class GaussSeidelSolver(IterativeSolver):
    """Forward Gauss-Seidel sweeps with the same monitoring as Jacobi."""

    name = "gauss_seidel"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        diag = matrix.diagonal().astype(np.float64)
        if np.any(diag == 0):
            return self._breakdown(x)
        k = Kernels(matrix)
        monitor = self._monitor(b)
        x = x.astype(np.float64)
        b64 = b.astype(np.float64)
        status = None
        while status is None:
            k.sweep(x, b64, diag)
            status = monitor.update(k.norm(k.vsub(b64, k.spmv(x))))
        return self._result(status, x.astype(self.dtype), monitor, k)
