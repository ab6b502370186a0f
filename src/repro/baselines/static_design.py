"""The static-design baseline of Section V-E.

The paper's primary comparison point is a design that "incorporates the
same optimized static units as Acamar, as well as a static configuration of
the SpMV unit": one solver fixed at synthesis time, one fixed unroll factor
``SpMV_URB``, no runtime adaptation.  Crucially, the baseline is evaluated
*optimistically* — for each dataset the paper assumes the static design was
built with a solver that happens to converge (Section VI-A notes a real
static deployment may simply diverge, with unbounded execution time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import AcamarConfig
from repro.errors import ConfigurationError
from repro.fpga.cost_model import LatencyReport, PerformanceModel
from repro.solvers import make_solver, solver_class
from repro.solvers.base import SolveResult
from repro.solvers.monitor import scaled_setup_iterations
from repro.sparse.csr import CSRMatrix


@dataclass
class StaticDesign:
    """A fixed-solver, fixed-unroll accelerator.

    Parameters
    ----------
    solver:
        Registry name of the synthesized solver.
    spmv_urb:
        The static SpMV unit's unroll factor (the ``SpMV_URB`` sweep
        parameter of Figures 6/7/9/10).
    config:
        Numerical parameters shared with Acamar (tolerance, precision,
        iteration caps) so comparisons isolate the architecture.
    """

    solver: str
    spmv_urb: int
    config: AcamarConfig | None = None

    def __post_init__(self) -> None:
        solver_class(self.solver)  # an unknown name fails here, not mid-solve
        if self.spmv_urb < 1:
            raise ConfigurationError(f"spmv_urb must be >= 1, got {self.spmv_urb}")
        if self.config is None:
            self.config = AcamarConfig()

    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Run the fixed solver once — no fallback on divergence."""
        solver = make_solver(
            self.solver,
            tolerance=self.config.tolerance,
            max_iterations=self.config.max_iterations,
            setup_iterations=scaled_setup_iterations(
                matrix.shape[0], self.config.setup_iterations
            ),
            dtype=self.config.dtype,
        )
        return solver.solve(matrix, b, x0)

    def latency(
        self,
        matrix: CSRMatrix,
        result: SolveResult,
        model: PerformanceModel | None = None,
    ) -> LatencyReport:
        """Cost a solve on the static fabric (no reconfiguration events)."""
        model = model if model is not None else PerformanceModel()
        return model.solver_latency(matrix, result, urb=self.spmv_urb)


def run_solver_portfolio(
    matrix: CSRMatrix,
    b: np.ndarray,
    config: AcamarConfig | None = None,
    solvers: tuple[str, ...] = ("jacobi", "cg", "bicgstab"),
) -> dict[str, SolveResult]:
    """Run each solver independently on one system (Table II's first
    three columns).

    Returns a dict ``solver name -> SolveResult``; a result with
    ``converged == False`` is a ✗ entry.
    """
    config = config if config is not None else AcamarConfig()
    results: dict[str, SolveResult] = {}
    for name in solvers:
        results[name] = StaticDesign(name, spmv_urb=8, config=config).solve(matrix, b)
    return results
