"""Shared solver infrastructure: results, statuses, operation counting.

The accelerator's cost models do not time Python code — they replay the
kernels a solver executed (how many SpMV passes, dot products, AXPYs, …)
through a cycle-level device model.  Every solver runs its arithmetic on
the counting kernels of :mod:`repro.solvers.kernels`, which fill an
:class:`OpCounter` as it iterates, and returns the tally inside
:class:`SolveResult`.
"""

from __future__ import annotations

import enum
import functools
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix, _aligned_empty

if TYPE_CHECKING:
    from repro.solvers.kernels import Kernels
    from repro.solvers.monitor import ConvergenceMonitor


_F = TypeVar("_F", bound=Callable)


def tolerate_float_excursions(solve_method: _F) -> _F:
    """Silence numpy overflow/invalid warnings inside a solver loop.

    Divergence legitimately overflows fp32 before the monitor detects it
    (the iterates blow up by design on a divergent system); the residual
    monitor turns the resulting inf/NaN into a clean ``DIVERGED`` status,
    so the intermediate warnings are noise.
    """

    @functools.wraps(solve_method)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return solve_method(*args, **kwargs)

    return wrapper  # type: ignore[return-value]


class SolveStatus(enum.Enum):
    """Terminal state of an iterative solve."""

    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"

    @property
    def failed(self) -> bool:
        """Everything except convergence counts as failure (Table II ✗)."""
        return self is not SolveStatus.CONVERGED


class OpCounter:
    """Tallies kernel invocations; consumed by the FPGA/GPU cost models."""

    DENSE_KINDS = ("dot", "axpy", "scale", "vadd", "norm")

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()

    def record(self, kind: str, size: int) -> None:
        """Count one invocation of ``kind`` touching ``size`` elements."""
        self.counts[kind] += 1
        self.sizes[kind] += int(size)

    def spmv_count(self) -> int:
        """Number of SpMV passes executed."""
        return self.counts.get("spmv", 0)

    def dense_element_total(self) -> int:
        """Total dense-kernel elements processed (for the dense cycle model)."""
        return sum(self.sizes.get(kind, 0) for kind in self.DENSE_KINDS)

    def merged_with(self, other: "OpCounter") -> "OpCounter":
        """Return a new counter with both tallies combined.

        ``Counter.update`` rather than ``Counter.__add__``: the latter
        drops non-positive entries, and a recorded kind with total size 0
        (e.g. an empty-vector kernel) must survive the merge.
        """
        merged = OpCounter()
        merged.counts.update(self.counts)
        merged.counts.update(other.counts)
        merged.sizes.update(self.sizes)
        merged.sizes.update(other.sizes)
        return merged

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


@dataclass
class SolveResult:
    """Outcome of one iterative solve.

    Attributes
    ----------
    solver:
        Registry name of the solver that produced this result.
    status:
        Terminal :class:`SolveStatus`.
    x:
        Final iterate (the solution when ``status`` is ``CONVERGED``).
    iterations:
        Number of completed solver iterations.
    residual_history:
        Relative recursive-residual norm after each iteration, as the
        hardware tracks it (the residual from the recurrence, not a
        recomputed ``b - Ax``).
    ops:
        Kernel-invocation tally for the cost models.
    """

    solver: str
    status: SolveStatus
    x: np.ndarray
    iterations: int
    residual_history: np.ndarray
    ops: OpCounter = field(default_factory=OpCounter)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED

    @property
    def final_residual(self) -> float:
        """Last recorded relative residual (inf when nothing was recorded)."""
        if len(self.residual_history) == 0:
            return float("inf")
        return float(self.residual_history[-1])


class IterativeSolver(ABC):
    """Base class for the Reconfigurable Solver unit's configurations.

    Subclasses declare ``name`` (registry key) and implement :meth:`solve`
    with the numerical recurrence on a per-solve
    :class:`~repro.solvers.kernels.Kernels`; the helpers below build the
    residual monitor and the :class:`SolveResult` every solver shares.
    """

    name: str = "base"

    def __init__(
        self,
        tolerance: float = 1e-5,
        max_iterations: int = 4000,
        setup_iterations: int = 200,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self.setup_iterations = int(setup_iterations)
        self.dtype = np.dtype(dtype)

    # ------------------------------------------------------------------

    def _prepare(
        self, matrix: CSRMatrix, b: np.ndarray, x0: np.ndarray | None
    ) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
        """Validate shapes and cast operands to the solver precision.

        The start vector comes back in a fresh buffer of the kind
        :meth:`Kernels.vector` hands out (solver precision, on a cache
        line), zeroed or holding a copy of ``x0``, so a solver iterates in
        it directly.
        """
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeMismatchError(
                f"iterative solvers need a square matrix, got {matrix.shape}"
            )
        n = matrix.shape[0]
        b = np.asarray(b, dtype=self.dtype)
        if b.shape != (n,):
            raise ShapeMismatchError(f"b must have shape ({n},), got {b.shape}")
        x = _aligned_empty(n, self.dtype)
        if x0 is None:
            x.fill(0)
        else:
            x0 = np.asarray(x0, dtype=self.dtype)
            if x0.shape != (n,):
                raise ShapeMismatchError(f"x0 must have shape ({n},), got {x0.shape}")
            x[:] = x0
        if matrix.data.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        return matrix, b, x

    def _monitor(self, b: np.ndarray) -> ConvergenceMonitor:
        """Residual monitor normalized by ``‖b‖`` (float64, not tallied)."""
        # Imported here: the monitor module imports SolveStatus from this one.
        from repro.solvers.monitor import ConvergenceMonitor

        return ConvergenceMonitor(
            b_norm=float(np.linalg.norm(b.astype(np.float64))),
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            setup_iterations=self.setup_iterations,
        )

    def _result(
        self,
        status: SolveStatus,
        x: np.ndarray,
        monitor: ConvergenceMonitor,
        kernels: Kernels,
    ) -> SolveResult:
        """Package a finished run: the monitor's history and the tally."""
        return SolveResult(
            solver=self.name,
            status=status,
            x=x,
            iterations=monitor.iterations,
            residual_history=monitor.history_array(),
            ops=kernels.ops,
        )

    def _breakdown(self, x: np.ndarray) -> SolveResult:
        """Breakdown before the first iteration (e.g. a zero diagonal)."""
        return SolveResult(
            solver=self.name,
            status=SolveStatus.BREAKDOWN,
            x=x,
            iterations=0,
            residual_history=np.array([], dtype=np.float64),
        )

    @abstractmethod
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        """Run the iteration until convergence, divergence or the cap."""
