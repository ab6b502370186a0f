"""Iterative solvers for ``Ax = b``.

The paper's Reconfigurable Solver unit can be configured as one of three
iterative methods — Jacobi (Algorithm 1), Conjugate Gradient (Algorithm 2)
and BiCG-STAB (Algorithm 3).  This package implements all three in the
matrix/vector form the hardware executes, plus the additional Table I
methods (Gauss-Seidel, SOR, GMRES) as extensions, a shared convergence /
divergence monitor, and per-kernel operation counting that feeds the FPGA
and GPU cost models.
"""

from repro.errors import UnknownNameError
from repro.solvers.base import (
    IterativeSolver,
    OpCounter,
    SolveResult,
    SolveStatus,
)
from repro.solvers.bicg import BiCGSolver
from repro.solvers.bicgstab import BiCGStabSolver
from repro.solvers.cg import ConjugateGradientSolver
from repro.solvers.chebyshev import ChebyshevSolver
from repro.solvers.conjugate_residual import ConjugateResidualSolver
from repro.solvers.criteria import (
    ConvergenceCriterion,
    criteria_table,
    criterion_for,
)
from repro.solvers.gauss_seidel import GaussSeidelSolver
from repro.solvers.gmres import GMRESSolver
from repro.solvers.jacobi import JacobiSolver
from repro.solvers.monitor import ConvergenceMonitor
from repro.solvers.multicolor_gs import MulticolorGaussSeidelSolver
from repro.solvers.pcg import PreconditionedCGSolver
from repro.solvers.sor import SORSolver
from repro.solvers.srj import ScheduledRelaxationJacobiSolver

SOLVER_REGISTRY: dict[str, type[IterativeSolver]] = {
    "jacobi": JacobiSolver,
    "cg": ConjugateGradientSolver,
    "bicgstab": BiCGStabSolver,
    "gauss_seidel": GaussSeidelSolver,
    "sor": SORSolver,
    "gmres": GMRESSolver,
    "bicg": BiCGSolver,
    "conjugate_residual": ConjugateResidualSolver,
    "pcg": PreconditionedCGSolver,
    "srj": ScheduledRelaxationJacobiSolver,
    "chebyshev": ChebyshevSolver,
    "multicolor_gs": MulticolorGaussSeidelSolver,
}
"""Solver name → class.  The first three are the paper's hardware
configurations; the rest are Table I methods provided as extensions."""


def solver_class(name: str) -> type[IterativeSolver]:
    """Look a solver up by registry name (e.g. ``"cg"``)."""
    try:
        return SOLVER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(SOLVER_REGISTRY))
        raise UnknownNameError(
            f"unknown solver {name!r}; known solvers: {known}"
        ) from None


def make_solver(name: str, **kwargs) -> IterativeSolver:
    """Instantiate a solver by registry name (e.g. ``"cg"``)."""
    return solver_class(name)(**kwargs)


__all__ = [
    "BiCGSolver",
    "BiCGStabSolver",
    "ChebyshevSolver",
    "ConjugateGradientSolver",
    "ConjugateResidualSolver",
    "ConvergenceCriterion",
    "ConvergenceMonitor",
    "GMRESSolver",
    "GaussSeidelSolver",
    "IterativeSolver",
    "JacobiSolver",
    "MulticolorGaussSeidelSolver",
    "OpCounter",
    "PreconditionedCGSolver",
    "SOLVER_REGISTRY",
    "SORSolver",
    "ScheduledRelaxationJacobiSolver",
    "SolveResult",
    "SolveStatus",
    "criteria_table",
    "criterion_for",
    "make_solver",
    "solver_class",
]
