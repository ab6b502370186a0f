"""Restarted GMRES (Table I's "General Method of Residual" extension).

GMRES minimizes the residual 2-norm over the Krylov subspace built by an
Arnoldi process, which makes it applicable to general (symmetric or not)
positive-definite systems per Table I.  The restarted variant GMRES(m)
bounds memory by rebuilding the subspace every ``m`` steps.  It is not one
of the three hardware configurations, but the Solver Modifier's design
space includes it, and it serves as the robust reference solver in tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    SolveStatus,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.sparse.csr import CSRMatrix

_BREAKDOWN_EPS = 1e-30


class GMRESSolver(IterativeSolver):
    """GMRES(m) with modified Gram-Schmidt Arnoldi and Givens rotations.

    ``max_iterations`` counts *inner* Arnoldi steps (matrix products), so
    cost is comparable with the other solvers' iteration counts.
    """

    name = "gmres"

    def __init__(self, restart: int = 32, **kwargs) -> None:
        super().__init__(**kwargs)
        if restart < 1:
            raise ConfigurationError(f"restart must be >= 1, got {restart}")
        self.restart = int(restart)

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        kernels = Kernels(matrix)
        n = matrix.shape[0]
        monitor = self._monitor(b)
        x = x.astype(np.float64)
        b64 = b.astype(np.float64)
        status: SolveStatus | None = None
        while status is None:
            r = kernels.vsub(b64, kernels.spmv(x))
            beta = kernels.norm(r)
            status = monitor.update(beta)
            if status is not None:
                break
            if beta < _BREAKDOWN_EPS:
                status = SolveStatus.CONVERGED
                break
            m = self.restart
            basis = np.zeros((m + 1, n), dtype=np.float64)
            hessenberg = np.zeros((m + 1, m), dtype=np.float64)
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            g[0] = beta
            basis[0] = r / beta
            k_used = 0
            for k in range(m):
                w = kernels.spmv(basis[k])
                for i in range(k + 1):
                    hessenberg[i, k] = kernels.dot(w, basis[i])
                    w = kernels.axmy(w, hessenberg[i, k], basis[i])
                hessenberg[k + 1, k] = kernels.norm(w)
                lucky = hessenberg[k + 1, k] < _BREAKDOWN_EPS
                if not lucky:
                    basis[k + 1] = w / hessenberg[k + 1, k]
                # Apply accumulated Givens rotations to the new column.
                for i in range(k):
                    temp = cs[i] * hessenberg[i, k] + sn[i] * hessenberg[i + 1, k]
                    hessenberg[i + 1, k] = (
                        -sn[i] * hessenberg[i, k] + cs[i] * hessenberg[i + 1, k]
                    )
                    hessenberg[i, k] = temp
                denom = np.hypot(hessenberg[k, k], hessenberg[k + 1, k])
                if denom < _BREAKDOWN_EPS:
                    cs[k], sn[k] = 1.0, 0.0
                else:
                    cs[k] = hessenberg[k, k] / denom
                    sn[k] = hessenberg[k + 1, k] / denom
                hessenberg[k, k] = denom
                hessenberg[k + 1, k] = 0.0
                g[k + 1] = -sn[k] * g[k]
                g[k] = cs[k] * g[k]
                k_used = k + 1
                status = monitor.update(abs(g[k + 1]))
                if status is not None or lucky:
                    break
            # Solve the triangular system and update x with the Krylov combo.
            if k_used:
                y = np.zeros(k_used)
                for i in range(k_used - 1, -1, -1):
                    y[i] = (
                        g[i] - hessenberg[i, i + 1 : k_used] @ y[i + 1 : k_used]
                    ) / hessenberg[i, i]
                x = kernels.axpy(x, 1.0, basis[:k_used].T @ y)
            if status is SolveStatus.CONVERGED:
                break
        return self._result(status, x.astype(self.dtype), monitor, kernels)
