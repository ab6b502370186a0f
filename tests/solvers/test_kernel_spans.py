"""Exact kernel tallies and kernel telemetry for every solver.

Every solver runs on :class:`repro.solvers.kernels.Kernels`, so two
things hold exactly, with no slack for a "partial last iteration":

- under an active collector, the ``kernel.spmv`` plus ``kernel.rmatvec``
  span counts equal the tallied SpMV passes, and no other span appears;
- each extension solver's tally is a closed form in its iteration count
  and exit path (the paper's three solvers are compared against frozen
  copies of their loops in ``test_frozen_loops.py``).
"""

import numpy as np
import pytest

from repro.datasets import poisson_2d
from repro.datasets.generators import sdd_matrix
from repro.solvers import (
    SOLVER_REGISTRY,
    BiCGSolver,
    BiCGStabSolver,
    SolveStatus,
    make_solver,
)
from repro.solvers.preconditioners import make_preconditioner
from repro.sparse import CSRMatrix
from repro.sparse.coloring import color_classes, greedy_coloring
from repro.telemetry import Telemetry

SKEW = CSRMatrix.from_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
"""``x . A x = 0`` for every ``x``: the Krylov denominators vanish."""

ZERO_DIAGONAL = CSRMatrix.from_dense(
    np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
)


def _problem(n=128, seed=5):
    matrix = sdd_matrix(n, 6.0, seed=seed)
    b = matrix.matvec(np.random.default_rng(seed).standard_normal(n))
    return matrix, b.astype(np.float32)


def _poisson():
    problem = poisson_2d(6, seed=1)
    return problem.matrix, problem.b


def test_bicgstab_records_spmv_kernel_spans():
    matrix, b = _problem()
    collector = Telemetry()
    with collector.activate():
        result = BiCGStabSolver().solve(matrix, b)
    spans = collector.spans["kernel.spmv"]
    # One initial residual SpMV plus at least one per completed iteration.
    assert spans.count >= 1 + result.iterations
    assert spans.total_ms >= 0.0


def test_bicg_records_rmatvec_kernel_spans():
    matrix, b = _problem()
    collector = Telemetry()
    with collector.activate():
        result = BiCGSolver().solve(matrix, b)
    spmv = collector.spans["kernel.spmv"]
    rmatvec = collector.spans["kernel.rmatvec"]
    # The initial residual SpMV, then one A-sweep and one A.T-sweep per
    # loop pass (the monitor counts the initial residual check as an
    # iteration, hence one fewer transposed sweep than iterations).
    assert spmv.count == rmatvec.count + 1 == result.iterations
    assert rmatvec.count >= 1


def test_solvers_silent_without_collector():
    matrix, b = _problem()
    result = BiCGStabSolver().solve(matrix, b)
    assert result.iterations >= 0


# -- every solver: spans mirror the SpMV tally -------------------------

SPAN_INPUTS = {
    "poisson": _poisson,
    "cap": _poisson,
    "skew": lambda: (SKEW, np.array([1.0, 0.0])),
    "zero_diagonal": lambda: (ZERO_DIAGONAL, np.ones(3)),
}


@pytest.mark.parametrize("case", sorted(SPAN_INPUTS))
@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_spmv_spans_equal_spmv_tally(name, case):
    matrix, b = SPAN_INPUTS[case]()
    options = {"max_iterations": 3} if case == "cap" else {}
    collector = Telemetry()
    with collector.activate():
        result = make_solver(name, **options).solve(matrix, b)
    spans = {k: v.count for k, v in collector.spans.items()}
    assert set(spans) <= {"kernel.spmv", "kernel.rmatvec"}
    assert sum(spans.values()) == result.ops.counts.get("spmv", 0)
    if name != "bicg":
        assert "kernel.rmatvec" not in spans


@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_solve_defined_in_class_body(name):
    # The end-to-end tracer wraps ``solve`` only where a class defines it.
    assert "solve" in vars(SOLVER_REGISTRY[name])


# -- extension solvers: tallies in closed form ------------------------


def _tally(**kinds):
    """``kind=(count, size)`` pairs, dropping kinds never recorded."""
    counts = {k: c for k, (c, _) in kinds.items() if c}
    sizes = {k: s for k, (c, s) in kinds.items() if c}
    return counts, sizes


def _sweep_tally(result, matrix, exit):
    if exit == "breakdown":
        return _tally()
    i, n, z = result.iterations, matrix.shape[0], matrix.nnz
    return _tally(spmv=(2 * i, 2 * i * z), vadd=(i, i * n), norm=(i, i * n))


def _srj_tally(result, matrix, exit):
    if exit == "breakdown":
        return _tally()
    i, n, z = result.iterations, matrix.shape[0], matrix.nnz
    dense = (i, i * n)
    return _tally(
        spmv=(i, i * z), vadd=dense, scale=dense, axpy=dense, norm=dense
    )


def _multicolor_tally(result, matrix, exit):
    if exit == "breakdown":
        return _tally()
    i, n, z = result.iterations, matrix.shape[0], matrix.nnz
    colors = len(color_classes(greedy_coloring(matrix)))
    off = matrix.without_diagonal().nnz
    return _tally(
        spmv=(i * (colors + 1), i * (colors * off + z)),
        scale=(i * colors, i * n),
        vadd=(i, i * n),
        norm=(i, i * n),
    )


def _chebyshev_tally(result, matrix, exit):
    i, n, z = result.iterations, matrix.shape[0], matrix.nnz
    axpy = max(0, 2 * i - 3)  # the last pass exits before the d update
    return _tally(
        spmv=(i, i * z), vadd=(i, i * n), norm=(i - 1, (i - 1) * n),
        axpy=(axpy, axpy * n),
    )


def _cr_tally(result, matrix, exit):
    passes, n, z = result.iterations - 1, matrix.shape[0], matrix.nnz
    if exit == "breakdown":
        spmv, dot, axpy = passes + 2, 2 * passes + 2, 4 * passes
    elif passes:
        spmv, dot, axpy = passes + 1, 2 * passes, 4 * passes - 2
    else:
        spmv, dot, axpy = 2, 1, 0
    return _tally(
        spmv=(spmv, spmv * z), vadd=(1, n), dot=(dot, dot * n),
        axpy=(axpy, axpy * n), norm=(passes, passes * n),
    )


def _bicg_tally(result, matrix, exit):
    passes, n, z = result.iterations - 1, matrix.shape[0], matrix.nnz
    if exit == "rho_breakdown":
        spmv, dot, axpy = 1 + 2 * passes, 1 + 2 * passes, 4 * passes
    elif exit == "denominator_breakdown":
        spmv, dot, axpy = 3 + 2 * passes, 2 + 2 * passes, 4 * passes
    elif passes:
        spmv, dot, axpy = 1 + 2 * passes, 2 * passes, 4 * passes - 1
    else:
        spmv, dot, axpy = 1, 1, 0
    return _tally(
        spmv=(spmv, spmv * z), vadd=(1, n), dot=(dot, dot * n),
        axpy=(axpy, axpy * n), norm=(passes, passes * n),
    )


def _pcg_tally(result, matrix, exit, preconditioner="jacobi"):
    if exit == "setup_breakdown":
        return _tally()
    passes, n, z = result.iterations - 1, matrix.shape[0], matrix.nnz
    cost = max(1, make_preconditioner(preconditioner, matrix)
               .apply_cost_elements())
    if exit == "breakdown":
        spmv, dot, axpy, scale = passes + 2, 2 * passes + 2, 3 * passes, passes + 1
    elif passes:
        spmv, dot, axpy, scale = passes + 1, 2 * passes, 3 * passes - 1, passes
    else:
        spmv, dot, axpy, scale = 1, 1, 0, 1
    return _tally(
        spmv=(spmv, spmv * z), vadd=(1, n), scale=(scale, scale * cost),
        dot=(dot, dot * n), axpy=(axpy, axpy * n), norm=(passes, passes * n),
    )


def _gmres_tally(result, matrix, exit, restart=32):
    """Restart cycles of one residual check plus up to ``restart`` steps.

    Valid when no Arnoldi step breaks down early, so every cycle but the
    last runs all ``restart`` steps.
    """
    n, z = matrix.shape[0], matrix.nnz
    full, rest = divmod(result.iterations, restart + 1)
    steps = [restart] * full + ([rest - 1] if rest else [])
    checks = len(steps)
    spmv = sum(1 + s for s in steps)
    dot = sum(s * (s + 1) // 2 for s in steps)
    axpy = dot + sum(1 for s in steps if s)
    return _tally(
        spmv=(spmv, spmv * z), vadd=(checks, checks * n),
        norm=(spmv, spmv * n), dot=(dot, dot * n), axpy=(axpy, axpy * n),
    )


def _negated(matrix):
    return matrix.with_data(-matrix.data)


CLOSED_FORMS = [
    # solver, options, input, exit, closed form
    ("gauss_seidel", {}, _poisson, "converged", _sweep_tally),
    ("gauss_seidel", {"max_iterations": 3}, _poisson, "max_iterations",
     _sweep_tally),
    ("gauss_seidel", {}, lambda: (ZERO_DIAGONAL, np.ones(3)), "breakdown",
     _sweep_tally),
    ("sor", {}, _poisson, "converged", _sweep_tally),
    ("sor", {"omega": 1.0, "max_iterations": 4}, _poisson, "max_iterations",
     _sweep_tally),
    ("sor", {}, lambda: (ZERO_DIAGONAL, np.ones(3)), "breakdown",
     _sweep_tally),
    ("srj", {}, _poisson, "converged", _srj_tally),
    ("srj", {"max_iterations": 5}, _poisson, "max_iterations", _srj_tally),
    ("srj", {}, lambda: (ZERO_DIAGONAL, np.ones(3)), "breakdown",
     _srj_tally),
    ("multicolor_gs", {}, _poisson, "converged", _multicolor_tally),
    ("multicolor_gs", {"max_iterations": 2}, _poisson, "max_iterations",
     _multicolor_tally),
    ("multicolor_gs", {}, lambda: (ZERO_DIAGONAL, np.ones(3)), "breakdown",
     _multicolor_tally),
    ("chebyshev", {}, _poisson, "converged", _chebyshev_tally),
    ("chebyshev", {"max_iterations": 4}, _poisson, "max_iterations",
     _chebyshev_tally),
    ("chebyshev", {}, lambda: (_poisson()[0], np.zeros(36)), "converged",
     _chebyshev_tally),
    ("conjugate_residual", {}, _poisson, "converged", _cr_tally),
    ("conjugate_residual", {"max_iterations": 3}, _poisson,
     "max_iterations", _cr_tally),
    ("conjugate_residual", {}, lambda: (SKEW, np.array([1.0, 0.0])),
     "breakdown", _cr_tally),
    ("conjugate_residual", {}, lambda: (_poisson()[0], np.zeros(36)),
     "converged", _cr_tally),
    ("bicg", {}, _poisson, "converged", _bicg_tally),
    ("bicg", {"max_iterations": 3}, _poisson, "max_iterations", _bicg_tally),
    ("bicg", {}, lambda: (SKEW, np.array([1.0, 0.0])),
     "denominator_breakdown", _bicg_tally),
    ("bicg", {}, lambda: (
        CSRMatrix.from_dense(np.array([[2.0, 1.0], [0.0, -1.0]])),
        np.array([0.0, -1.0]),
    ), "rho_breakdown", _bicg_tally),
    ("bicg", {}, lambda: (_poisson()[0], np.zeros(36)), "converged",
     _bicg_tally),
    ("pcg", {}, _poisson, "converged", _pcg_tally),
    ("pcg", {"max_iterations": 3}, _poisson, "max_iterations", _pcg_tally),
    ("pcg", {"preconditioner": "ssor"}, _poisson, "converged",
     lambda r, m, e: _pcg_tally(r, m, e, "ssor")),
    ("pcg", {"preconditioner": "ilu0"}, _poisson, "converged",
     lambda r, m, e: _pcg_tally(r, m, e, "ilu0")),
    ("pcg", {"preconditioner": "identity"},
     lambda: (SKEW, np.array([1.0, 0.0])), "breakdown",
     lambda r, m, e: _pcg_tally(r, m, e, "identity")),
    ("pcg", {}, lambda: (ZERO_DIAGONAL, np.ones(3)), "setup_breakdown",
     _pcg_tally),
    ("pcg", {}, lambda: (_negated(_poisson()[0]), _poisson()[1]),
     "setup_breakdown", _pcg_tally),
    ("pcg", {}, lambda: (_poisson()[0], np.zeros(36)), "converged",
     _pcg_tally),
    ("gmres", {}, _poisson, "converged", _gmres_tally),
    ("gmres", {"restart": 2}, _poisson, "converged",
     lambda r, m, e: _gmres_tally(r, m, e, restart=2)),
    ("gmres", {"restart": 3, "max_iterations": 9}, _poisson,
     "max_iterations", lambda r, m, e: _gmres_tally(r, m, e, restart=3)),
    ("gmres", {"restart": 3, "max_iterations": 10}, _poisson,
     "max_iterations", lambda r, m, e: _gmres_tally(r, m, e, restart=3)),
]

EXIT_STATUS = {
    "converged": SolveStatus.CONVERGED,
    "max_iterations": SolveStatus.MAX_ITERATIONS,
}


@pytest.mark.parametrize(
    "name, options, make_input, exit, closed_form",
    CLOSED_FORMS,
    ids=[f"{c[0]}-{c[3]}-{i}" for i, c in enumerate(CLOSED_FORMS)],
)
def test_extension_tally_matches_closed_form(
    name, options, make_input, exit, closed_form
):
    matrix, b = make_input()
    result = make_solver(name, **options).solve(matrix, b)
    assert result.status is EXIT_STATUS.get(exit, SolveStatus.BREAKDOWN)
    counts, sizes = closed_form(result, matrix, exit)
    assert dict(result.ops.counts) == counts
    assert dict(result.ops.sizes) == sizes
