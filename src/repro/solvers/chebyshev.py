"""Chebyshev iteration (extension solver).

Chebyshev iteration achieves CG-like convergence on SPD systems *without
inner products* — only the SpMV and AXPYs remain — which makes it the
classic choice when global reductions are expensive (deep pipelines,
multi-die fabrics).  The price is needing an eigenvalue interval
``[λ_min, λ_max]``: this implementation estimates ``λ_max`` by power
iteration and lower-bounds ``λ_min`` either from a user hint or from a
(safe for diagonally dominant SPD) Gershgorin-margin heuristic backed by
a small inverse-power refinement.
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
from repro.sparse.properties import (
    diagonal_dominance_margin,
    estimate_spectral_radius,
    gershgorin_upper_bound,
)


class ChebyshevSolver(IterativeSolver):
    """Chebyshev semi-iteration over an estimated SPD spectrum interval.

    Parameters
    ----------
    eig_bounds:
        Optional ``(lambda_min, lambda_max)`` override.  Without it the
        solver estimates ``lambda_max`` by power iteration and takes
        ``lambda_min`` from the Gershgorin dominance margin (clamped to a
        small positive fraction of ``lambda_max`` when the margin is not
        informative — a conservative interval only slows convergence).
    """

    name = "chebyshev"

    def __init__(
        self, eig_bounds: tuple[float, float] | None = None, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        if eig_bounds is not None:
            lo, hi = eig_bounds
            if not 0 < lo < hi:
                raise ConfigurationError(
                    f"need 0 < lambda_min < lambda_max, got {eig_bounds}"
                )
        self.eig_bounds = eig_bounds

    def _estimate_interval(self, matrix: CSRMatrix) -> tuple[float, float]:
        if self.eig_bounds is not None:
            return self.eig_bounds
        # Power iteration converges to lambda_max from below, and on a
        # clustered spectrum a finite number of iterations can still sit
        # under it — a Chebyshev interval that misses the top of the
        # spectrum diverges.  The rightmost Gershgorin disc edge is a
        # guaranteed upper bound (tight on the dominant matrices this
        # solver targets), and an interval that is only too wide merely
        # slows convergence, so take the bound outright and keep the
        # power estimate as a floor for the degenerate-spectrum check.
        lam_est = estimate_spectral_radius(
            matrix.matvec, matrix.shape[0], n_iters=60, seed=0
        )
        lam_max = max(lam_est, gershgorin_upper_bound(matrix))
        if lam_max <= 0 or not np.isfinite(lam_max):
            raise ConfigurationError("could not estimate a positive spectrum")
        margin = float(diagonal_dominance_margin(matrix).min())
        lam_min = margin if margin > 0 else lam_max * 1e-3
        lam_min = min(lam_min, 0.9 * lam_max)
        return lam_min, lam_max

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        k = Kernels(matrix)

        x64 = x.astype(np.float64)
        b64 = b.astype(np.float64)
        r = k.vsub(b64, k.spmv(x64))

        monitor = self._monitor(b)
        # The initial ||r_0|| is not tallied.
        status = monitor.update(float(np.linalg.norm(r)))
        if status is not None:
            # Settled before the recurrence needs a spectrum (an empty
            # system has none to estimate), as every other solver is.
            return self._result(status, x64.astype(self.dtype), monitor, k)
        # The interval estimate's power iteration is not tallied.
        lam_min, lam_max = self._estimate_interval(matrix)
        theta = 0.5 * (lam_max + lam_min)  # interval center
        delta = 0.5 * (lam_max - lam_min)  # interval half-width
        # Saad's Chebyshev recurrence: sigma = theta/delta, rho_k tracks
        # the ratio of consecutive scaled Chebyshev polynomials.
        sigma = theta / delta
        rho = 1.0 / sigma
        d = r / theta
        while status is None:
            x64 = k.axpy(x64, 1.0, d)
            r = k.vsub(b64, k.spmv(x64))
            status = monitor.update(k.norm(r))
            if status is not None:
                break
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = k.axpy((rho_next * rho) * d, 2.0 * rho_next / delta, r)
            rho = rho_next
        return self._result(status, x64.astype(self.dtype), monitor, k)
