"""The Acamar accelerator: both decision loops wired together.

:class:`Acamar` reproduces Figure 3's control flow in software:

1. the **Matrix Structure unit** inspects the CSR input and selects the
   initial Reconfigurable Solver configuration (Solver Decision loop),
2. the **Fine-Grained Reconfiguration unit** traces row lengths, runs the
   MSID chain and emits the Dynamic SpMV kernel's unroll schedule
   (Resource Decision loop),
3. the **Reconfigurable Solver** runs until convergence or divergence,
4. on divergence the **Solver Modifier unit** picks the next untried
   solver and the **Initialize unit** resets the iterate; the loop repeats
   until convergence or until every configuration has been attempted.

The numerical outcome plus the full decision trace (attempts, plan,
selection) is returned as an :class:`AcamarResult`, which the FPGA cost
model consumes to produce latency / utilization numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.core.finegrained import FineGrainedReconfigurationUnit, ReconfigurationPlan
from repro.core.matrix_structure import MatrixStructureUnit, SolverSelection
from repro.core.solver_modifier import SolverModifierUnit
from repro.errors import ShapeMismatchError, ValidationError
from repro.solvers import make_solver
from repro.solvers.base import OpCounter, SolveResult
from repro.solvers.monitor import scaled_setup_iterations
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class SolverAttempt:
    """One Reconfigurable Solver run, with what selected it."""

    solver: str
    selected_by: str  # "matrix_structure" | "solver_modifier"
    result: SolveResult


@dataclass
class AcamarResult:
    """Full outcome of an Acamar solve.

    Attributes
    ----------
    selection:
        The Matrix Structure unit's initial decision.
    plan:
        The Dynamic SpMV kernel's unroll schedule.
    attempts:
        Every solver run in order; the last one is the final result.
    """

    selection: SolverSelection
    plan: ReconfigurationPlan
    attempts: tuple[SolverAttempt, ...]

    @property
    def final(self) -> SolveResult:
        return self.attempts[-1].result

    @property
    def converged(self) -> bool:
        return self.final.converged

    @property
    def x(self) -> np.ndarray:
        return self.final.x

    @property
    def solver_sequence(self) -> tuple[str, ...]:
        """Solvers in attempt order (length > 1 means the Modifier fired)."""
        return tuple(a.solver for a in self.attempts)

    @property
    def solver_reconfigurations(self) -> int:
        """Full solver-level fabric reconfigurations (attempts - 1)."""
        return max(0, len(self.attempts) - 1)

    @property
    def spmv_reconfigurations(self) -> int:
        """Fine-grained Dynamic-SpMV reconfiguration events per sweep."""
        return self.plan.reconfiguration_count

    def total_ops(self) -> OpCounter:
        """Kernel tally across all attempts (for the cost models)."""
        merged = OpCounter()
        for attempt in self.attempts:
            merged = merged.merged_with(attempt.result.ops)
        return merged


def _check_operands(
    matrix: CSRMatrix, b: np.ndarray, x0: np.ndarray | None
) -> None:
    """Reject a right-hand side, start or value stream no solver can use."""
    n = matrix.shape[0]
    vectors = {"b": np.asarray(b)}
    if x0 is not None:
        vectors["x0"] = np.asarray(x0)
    for name, vector in vectors.items():
        if vector.shape != (n,):
            raise ShapeMismatchError(
                f"{name} must have shape ({n},), got {vector.shape}"
            )
    vectors["matrix.data"] = matrix.data
    for name, values in vectors.items():
        finite = np.isfinite(values)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ValidationError(
                f"{name}[{index}] is {values[index]}; Acamar.solve needs "
                "finite values"
            )


NUMERICS_FIELDS: tuple[str, ...] = (
    "tolerance",
    "dtype",
    "setup_iterations",
    "max_iterations",
    "solver_options",
)
"""The :class:`AcamarConfig` fields every attempt of :meth:`Acamar.solve`
reads.  The attempt loop also reads ``solver_fallback_order``, but only
once an attempt fails; the Fine-Grained Reconfiguration unit reads the
other fields, and its plan never reaches the iterates."""


def numerics_key(config: AcamarConfig) -> str:
    """The :data:`NUMERICS_FIELDS` of ``config``, as a canonical string.

    Two solves of the same operands under configs with equal keys (and
    the same structure policy) select the same solver and run the same
    attempts when the first attempt converges, because the Solver
    Modifier then never reads its fallback order, or when their
    ``solver_fallback_order`` values are equal.  Only their plans can
    differ.
    """
    doc = config.to_dict()
    return json.dumps(
        {name: doc[name] for name in NUMERICS_FIELDS}, sort_keys=True
    )


FaultHook = Callable[[str, int, SolveResult], "SolveResult | None"]
"""Fault-injection seam of the attempt loop.

Called after every Reconfigurable Solver run with ``(solver_name,
attempt_index, result)``; returning a :class:`SolveResult` replaces the
attempt's outcome (e.g. a forced-divergence copy that drives the Solver
Modifier through its fallback transitions), returning ``None`` leaves it
untouched.  The hook sees real results and may only *substitute* them,
so the decision trace stays structurally well formed; the chaos harness
(:mod:`repro.faults`) is the intended caller.
"""


class Acamar:
    """Dynamically reconfigurable accelerator front-end.

    Parameters
    ----------
    config:
        Accelerator parameters; defaults to the paper's Section V values.
    fault_hook:
        Optional :data:`FaultHook` for deterministic fault injection
        into the attempt loop; ``None`` (production) never perturbs.

    Examples
    --------
    >>> from repro import Acamar, AcamarConfig
    >>> from repro.datasets import poisson_2d
    >>> problem = poisson_2d(32)
    >>> result = Acamar().solve(problem.matrix, problem.b)
    >>> result.converged
    True
    """

    def __init__(
        self,
        config: AcamarConfig | None = None,
        structure_policy: str = "symmetry_first",
        fault_hook: FaultHook | None = None,
    ) -> None:
        self.config = config if config is not None else AcamarConfig()
        self.matrix_structure = MatrixStructureUnit(policy=structure_policy)
        self.fine_grained = FineGrainedReconfigurationUnit(self.config)
        self.fault_hook = fault_hook

    def _make_solver(self, name: str, n_rows: int):
        extra = dict(self.config.solver_options.get(name, {}))
        return make_solver(
            name,
            tolerance=self.config.tolerance,
            max_iterations=self.config.max_iterations,
            setup_iterations=scaled_setup_iterations(
                n_rows, self.config.setup_iterations
            ),
            dtype=self.config.dtype,
            **extra,
        )

    def plan(self, matrix: CSRMatrix) -> ReconfigurationPlan:
        """Run only the Resource Decision loop (no numerics)."""
        return self.fine_grained.plan(matrix)

    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> AcamarResult:
        """Solve ``Ax = b`` with robust convergence.

        Runs the structure-selected solver first and falls back through the
        Solver Modifier's preference order until one converges (Table II's
        Acamar column) or all configurations are exhausted.

        Raises :class:`ShapeMismatchError` when ``b`` or ``x0`` is not a
        vector of the matrix's row count, and :class:`ValidationError`
        when ``b``, ``x0`` or the stored values hold a NaN or an infinity,
        both before either decision loop runs: no solver can converge on
        such input, and the fallback chain would run every one of them.
        """
        _check_operands(matrix, b, x0)
        with tm.span("matrix_structure.select"):
            selection = self.matrix_structure.select_solver(matrix)
        plan = self.fine_grained.plan(matrix)
        modifier = SolverModifierUnit(self.config.solver_fallback_order)
        attempts: list[SolverAttempt] = []
        solver_name: str | None = selection.solver
        selected_by = "matrix_structure"
        # Every configuration runs at the same solver precision, so cast
        # the operator once up front instead of once per fallback attempt
        # (each solver's ``_prepare`` then sees a matching dtype and the
        # cast matrix's structure cache is shared across attempts).
        solver_dtype = np.dtype(self.config.dtype)
        if matrix.data.dtype != solver_dtype:
            compute_matrix = matrix.astype(solver_dtype)
        else:
            compute_matrix = matrix
        while solver_name is not None:
            with tm.span("reconfigurable_solver.attempt"):
                solver = self._make_solver(solver_name, matrix.shape[0])
                result = solver.solve(compute_matrix, b, x0)
            if self.fault_hook is not None:
                injected = self.fault_hook(solver_name, len(attempts), result)
                if injected is not None:
                    result = injected
            tm.count(f"solver_attempts.{solver_name}")
            attempts.append(
                SolverAttempt(
                    solver=solver_name, selected_by=selected_by, result=result
                )
            )
            modifier.mark_tried(solver_name)
            if result.converged:
                break
            solver_name = modifier.next_solver()
            selected_by = "solver_modifier"
        tm.count("solver_swaps", max(0, len(attempts) - 1))
        tm.count("spmv_reconfig_events", plan.reconfiguration_count)
        return AcamarResult(
            selection=selection, plan=plan, attempts=tuple(attempts)
        )
