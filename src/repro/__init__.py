"""repro — a reproduction of *Acamar* (MICRO 2024) as a simulation library.

Acamar is a dynamically reconfigurable FPGA accelerator for iterative
sparse linear solvers.  This package rebuilds the whole system in Python
at cycle-model fidelity:

- :mod:`repro.sparse` — CSR/COO containers with from-scratch SpMV and a
  cached transpose that serves as the Matrix Structure unit's CSC view,
- :mod:`repro.solvers` — Jacobi, CG, BiCG-STAB (+ Gauss-Seidel, SOR,
  GMRES) with hardware-style convergence/divergence monitoring,
- :mod:`repro.core` — the accelerator itself: Matrix Structure unit,
  Fine-Grained Reconfiguration with the MSID chain, Solver Modifier, and
  the :class:`~repro.core.accelerator.Acamar` orchestration,
- :mod:`repro.fpga` / :mod:`repro.gpu` — cycle-level cost models of the
  Alveo-u55c fabric and the GTX 1650 Super baseline,
- :mod:`repro.baselines` — the static fixed-solver / fixed-unroll design,
- :mod:`repro.datasets` — Table II stand-ins and PDE / graph /
  optimization workloads,
- :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import Acamar
    from repro.datasets import poisson_2d

    problem = poisson_2d(64)
    result = Acamar().solve(problem.matrix, problem.b)
    print(result.solver_sequence, result.converged)
"""

from repro.campaign import CampaignReport, run_campaign
from repro.config import AcamarConfig
from repro.core import Acamar, AcamarResult
from repro.datasets import Problem
from repro.errors import (
    ConfigurationError,
    DatasetError,
    ReproError,
    ShapeMismatchError,
    SolverBreakdownError,
    SolverError,
    SparseFormatError,
    UnknownNameError,
    ValidationError,
)
from repro.solvers import SolveResult, SolveStatus
from repro.sparse import CSRMatrix

__version__ = "1.0.0"

__all__ = [
    "Acamar",
    "AcamarConfig",
    "AcamarResult",
    "CampaignReport",
    "CSRMatrix",
    "ConfigurationError",
    "DatasetError",
    "Problem",
    "ReproError",
    "ShapeMismatchError",
    "SolveResult",
    "SolveStatus",
    "SolverBreakdownError",
    "SolverError",
    "SparseFormatError",
    "UnknownNameError",
    "ValidationError",
    "__version__",
    "run_campaign",
]
