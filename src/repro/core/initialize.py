"""Initialize unit: the pre-loop operations of each solver.

Algorithms 1–3 all perform work before their iteration loop — Jacobi builds
``T = D^-1 (L+U)`` and ``c = D^-1 b``; CG and BiCG-STAB compute the initial
residual ``r_0 = b - A x_0``, which contains one SpMV.  The paper maps this
to a *static* unit: because it runs exactly once, Acamar does not pay a
reconfiguration to optimize it and instead executes an unoptimized SpMV
variant at a fixed default unroll factor.

The numerical work happens inside the solver implementations, whose
kernel calls tally every pass; this module says how many of the tallied
SpMV passes belong to the Initialize unit, so the FPGA cost model can
price them at the static (non-reconfigured) unroll factor.
"""

from __future__ import annotations

INITIALIZE_SPMV_COUNT: dict[str, int] = {
    "jacobi": 0,  # T and c are diagonal scalings, no SpMV
    "cg": 1,  # r_0 = b - A x_0
    "bicgstab": 1,  # r_0 = b - A x_0
    "gauss_seidel": 0,
    "sor": 0,
    "gmres": 1,  # initial residual of the first restart cycle
    "bicg": 1,
    "conjugate_residual": 2,  # r_0 and the first A r
    "pcg": 1,
    "srj": 0,
    "chebyshev": 1,
    "multicolor_gs": 0,
}
"""SpMV passes the Initialize unit executes, per solver."""

STATIC_INITIALIZE_UNROLL = 8
"""Default unroll factor of the Initialize unit's unoptimized SpMV."""


def initialize_spmv_count(solver: str) -> int:
    """SpMV passes run by the Initialize unit for ``solver``."""
    return INITIALIZE_SPMV_COUNT.get(solver, 1)
