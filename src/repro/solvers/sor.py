"""Successive Over-Relaxation (Table I extension).

SOR blends a Gauss-Seidel update with the previous iterate through a
relaxation factor ``omega``: ``x_i <- (1 - omega) x_i + omega * x_i^GS``.
For symmetric positive-definite matrices it converges for any
``0 < omega < 2`` (Table I's criterion); ``omega = 1`` reduces to
Gauss-Seidel, ``omega > 1`` over-relaxes to accelerate smooth error modes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.sparse.csr import CSRMatrix


class SORSolver(IterativeSolver):
    """Forward SOR sweeps with relaxation factor ``omega``."""

    name = "sor"

    def __init__(self, omega: float = 1.5, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.0 < omega < 2.0:
            raise ConfigurationError(
                f"SOR requires 0 < omega < 2 for convergence, got {omega}"
            )
        self.omega = float(omega)

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
            k.sweep(x, b64, diag, self.omega)
            status = monitor.update(k.norm(k.vsub(b64, k.spmv(x))))
        return self._result(status, x.astype(self.dtype), monitor, k)
