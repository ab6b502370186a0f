"""The paper's three solvers against frozen copies of their hand-tallied loops.

The functions below are the CG, BiCG-STAB and Jacobi ``solve`` bodies as
they were before the solvers moved onto :mod:`repro.solvers.kernels`,
with their hand-written ``ops.record`` tallies.  They are frozen: the only
edit is an exit label, set at each ``break``, so a test can assert which
exit an input reaches.  The kernel-layer solvers must reproduce them bit
for bit: iterate bytes, residual history, status, iteration count and
the op tally (counts, sizes and the order kinds first appear).

Copies run in the same process, rather than digests committed from an
earlier run, because the float64 dots go through BLAS ``ddot``, whose
summation order may differ between CPUs.
"""

import numpy as np
import pytest

from repro import datasets
from repro.core.accelerator import Acamar
from repro.solvers import (
    BiCGStabSolver,
    ConjugateGradientSolver,
    JacobiSolver,
    SolveStatus,
)
from repro.solvers.base import OpCounter, SolveResult, tolerate_float_excursions
from repro.solvers.monitor import ConvergenceMonitor
from repro.sparse import CSRMatrix

_BREAKDOWN_EPS = 1e-30


@tolerate_float_excursions
def frozen_cg(self, matrix, b, x0=None):
    matrix, b, x = self._prepare(matrix, b, x0)
    ops = OpCounter()
    n = matrix.shape[0]
    exit = "monitor"

    r = b - matrix.matvec(x)
    ops.record("spmv", matrix.nnz)
    ops.record("vadd", n)
    p = r.copy()
    rs = float(r.astype(np.float64) @ r.astype(np.float64))
    ops.record("dot", n)

    monitor = ConvergenceMonitor(
        b_norm=float(np.linalg.norm(b.astype(np.float64))),
        tolerance=self.tolerance,
        max_iterations=self.max_iterations,
        setup_iterations=self.setup_iterations,
    )
    status = monitor.update(np.sqrt(rs))
    while status is None:
        ap = matrix.matvec(p)
        ops.record("spmv", matrix.nnz)
        p_ap = float(p.astype(np.float64) @ ap.astype(np.float64))
        ops.record("dot", n)
        if abs(p_ap) < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "curvature_breakdown"
            break
        alpha = self.dtype.type(rs / p_ap)
        x = x + alpha * p
        ops.record("axpy", n)
        r = r - alpha * ap
        ops.record("axpy", n)
        rs_next = float(r.astype(np.float64) @ r.astype(np.float64))
        ops.record("dot", n)
        if rs < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "residual_breakdown"
            break
        beta = self.dtype.type(rs_next / rs)
        p = r + beta * p
        ops.record("axpy", n)
        rs = rs_next
        status = monitor.update(np.sqrt(max(rs, 0.0)))
    return SolveResult(
        solver=self.name,
        status=status,
        x=x,
        iterations=monitor.iterations,
        residual_history=monitor.history_array(),
        ops=ops,
    ), exit


@tolerate_float_excursions
def frozen_bicgstab(self, matrix, b, x0=None):
    matrix, b, x = self._prepare(matrix, b, x0)
    ops = OpCounter()
    n = matrix.shape[0]
    exit = "monitor"

    ax = matrix.matvec(x)
    r = b - ax
    ops.record("spmv", matrix.nnz)
    ops.record("vadd", n)
    r_shadow = r.astype(np.float64).copy()
    p = r.copy()

    monitor = ConvergenceMonitor(
        b_norm=float(np.linalg.norm(b.astype(np.float64))),
        tolerance=self.tolerance,
        max_iterations=self.max_iterations,
        setup_iterations=self.setup_iterations,
    )
    status = monitor.update(float(np.linalg.norm(r.astype(np.float64))))
    rho = float(r.astype(np.float64) @ r_shadow)
    ops.record("dot", n)
    while status is None:
        if abs(rho) < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "rho_breakdown"
            break
        ap = matrix.matvec(p)
        ops.record("spmv", matrix.nnz)
        ap_rs = float(ap.astype(np.float64) @ r_shadow)
        ops.record("dot", n)
        if abs(ap_rs) < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "alpha_breakdown"
            break
        alpha = rho / ap_rs
        s = r - self.dtype.type(alpha) * ap
        ops.record("axpy", n)
        s_norm = float(np.linalg.norm(s.astype(np.float64)))
        if monitor.relative(s_norm) <= self.tolerance:
            x = x + self.dtype.type(alpha) * p
            ops.record("axpy", n)
            status = monitor.update(s_norm)
            exit = "lucky"
            break
        a_s = matrix.matvec(s)
        ops.record("spmv", matrix.nnz)
        as_s = float(a_s.astype(np.float64) @ s.astype(np.float64))
        as_as = float(a_s.astype(np.float64) @ a_s.astype(np.float64))
        ops.record("dot", n)
        ops.record("dot", n)
        if as_as < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "singular_breakdown"
            break
        omega = as_s / as_as
        x = x + self.dtype.type(alpha) * p + self.dtype.type(omega) * s
        ops.record("axpy", n)
        ops.record("axpy", n)
        r = s - self.dtype.type(omega) * a_s
        ops.record("axpy", n)
        residual = float(np.linalg.norm(r.astype(np.float64)))
        ops.record("norm", n)
        status = monitor.update(residual)
        if status is not None:
            break
        rho_next = float(r.astype(np.float64) @ r_shadow)
        ops.record("dot", n)
        if abs(omega) < _BREAKDOWN_EPS:
            status = SolveStatus.BREAKDOWN
            exit = "omega_breakdown"
            break
        beta = (rho_next / rho) * (alpha / omega)
        p = r + self.dtype.type(beta) * (p - self.dtype.type(omega) * ap)
        ops.record("axpy", n)
        ops.record("axpy", n)
        rho = rho_next
    return SolveResult(
        solver=self.name,
        status=status,
        x=x,
        iterations=monitor.iterations,
        residual_history=monitor.history_array(),
        ops=ops,
    ), exit


@tolerate_float_excursions
def frozen_jacobi(self, matrix, b, x0=None):
    matrix, b, x = self._prepare(matrix, b, x0)
    ops = OpCounter()
    n = matrix.shape[0]
    diag = matrix.diagonal().astype(self.dtype)
    if np.any(diag == 0):
        return SolveResult(
            solver=self.name,
            status=SolveStatus.BREAKDOWN,
            x=x,
            iterations=0,
            residual_history=np.array([], dtype=np.float64),
            ops=ops,
        ), "zero_diagonal"
    inv_diag = (1.0 / diag).astype(self.dtype)
    off_diag = matrix.without_diagonal()
    row_of = off_diag.row_ids()
    t_matrix = off_diag.with_data(
        (off_diag.data * inv_diag[row_of]).astype(self.dtype)
    )
    c = (inv_diag * b).astype(self.dtype)

    monitor = ConvergenceMonitor(
        b_norm=float(np.linalg.norm(b.astype(np.float64))),
        tolerance=self.tolerance,
        max_iterations=self.max_iterations,
        setup_iterations=self.setup_iterations,
    )
    status = SolveStatus.MAX_ITERATIONS
    while True:
        tx = t_matrix.matvec(x)
        ops.record("spmv", t_matrix.nnz)
        x_next = c - tx
        ops.record("vadd", n)
        delta = x_next - x
        ops.record("vadd", n)
        residual = float(np.linalg.norm((diag * delta).astype(np.float64)))
        ops.record("scale", n)
        ops.record("norm", n)
        x = x_next
        verdict = monitor.update(residual)
        if verdict is not None:
            status = verdict
            break
    return SolveResult(
        solver=self.name,
        status=status,
        x=x,
        iterations=monitor.iterations,
        residual_history=monitor.history_array(),
        ops=ops,
    ), "monitor"


FROZEN = {
    ConjugateGradientSolver: frozen_cg,
    BiCGStabSolver: frozen_bicgstab,
    JacobiSolver: frozen_jacobi,
}


def assert_bit_identical(new: SolveResult, old: SolveResult) -> None:
    assert new.solver == old.solver
    assert new.status is old.status
    assert new.iterations == old.iterations
    assert new.x.dtype == old.x.dtype
    assert new.x.tobytes() == old.x.tobytes()
    assert new.residual_history.tobytes() == old.residual_history.tobytes()
    assert list(new.ops.counts.items()) == list(old.ops.counts.items())
    assert list(new.ops.sizes.items()) == list(old.ops.sizes.items())


@pytest.mark.parametrize("seed", [0, 1])
def test_every_acamar_attempt_matches_frozen_loops(monkeypatch, seed):
    pairs = []
    for cls, frozen in FROZEN.items():
        def solve(self, matrix, b, x0=None, _real=cls.solve, _frozen=frozen):
            result = _real(self, matrix, b, x0)
            pairs.append((result, _frozen(self, matrix, b, x0)[0]))
            return result

        monkeypatch.setattr(cls, "solve", solve)
    attempts = 0
    for key in datasets.dataset_keys():
        problem = datasets.load_problem(key, seed)
        attempts += len(Acamar().solve(problem.matrix, problem.b).attempts)
    # Every attempt of the stand-in population runs one of the three.
    assert len(pairs) == attempts >= 25
    for new, old in pairs:
        assert_bit_identical(new, old)


def _dense(rows, b):
    return CSRMatrix.from_dense(np.array(rows, dtype=float)), np.array(b, float)


def _poisson():
    problem = datasets.poisson_2d(6, seed=1)
    return problem.matrix, problem.b


def _jordan():
    matrix = CSRMatrix.from_dense(np.eye(40) + 5.0 * np.eye(40, k=1))
    return matrix, matrix.matvec(np.ones(40))


def _not_dominant():
    matrix = datasets.poisson_2d(8, seed=1).matrix
    matrix = matrix.with_data(np.where(matrix.data > 0, 1.0, matrix.data))
    return matrix, matrix.matvec(np.ones(64))


SKEW = ([[0, 1], [-1, 0]], [1, 0])
CASES = [
    # solver, options, input, status, exit
    (ConjugateGradientSolver, {}, _poisson, "converged", "monitor"),
    (ConjugateGradientSolver, {"max_iterations": 3}, _poisson,
     "max_iterations", "monitor"),
    (ConjugateGradientSolver, {"setup_iterations": 1}, _jordan, "diverged",
     "monitor"),
    (ConjugateGradientSolver, {}, lambda: _dense(*SKEW), "breakdown",
     "curvature_breakdown"),
    (ConjugateGradientSolver, {},
     lambda: _dense(np.diag([1e4, 2e4, 3e4, 4e4]), [1e-16] * 4),
     "breakdown", "residual_breakdown"),
    (BiCGStabSolver, {}, _poisson, "converged", "monitor"),
    (BiCGStabSolver, {"max_iterations": 3}, _poisson, "max_iterations",
     "monitor"),
    (BiCGStabSolver, {"setup_iterations": 1}, _jordan, "diverged",
     "monitor"),
    (BiCGStabSolver, {}, lambda: _dense(2 * np.eye(4), [1, -2, 3, 0.5]),
     "converged", "lucky"),
    (BiCGStabSolver, {}, lambda: _dense(
        [[1, 2, -1], [-2, 1, 0], [2, -1, 2]], [0, 2, 2]),
     "breakdown", "rho_breakdown"),
    (BiCGStabSolver, {}, lambda: _dense(*SKEW), "breakdown",
     "alpha_breakdown"),
    (BiCGStabSolver, {}, lambda: _dense([[-2, 0], [-1, 1]], [1, 1]),
     "breakdown", "omega_breakdown"),
    (JacobiSolver, {}, _poisson, "converged", "monitor"),
    (JacobiSolver, {"max_iterations": 3}, _poisson, "max_iterations",
     "monitor"),
    (JacobiSolver, {"setup_iterations": 1}, _not_dominant, "diverged",
     "monitor"),
    (JacobiSolver, {}, lambda: _dense([[0, 1], [1, 2]], [1, 1]),
     "breakdown", "zero_diagonal"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "cls, options, make_input, status, exit",
    CASES,
    ids=[f"{c[0].name}-{c[4]}-{c[3]}" for c in CASES],
)
def test_exit_matches_frozen_loop(cls, options, make_input, status, exit, dtype):
    matrix, b = make_input()
    solver = cls(dtype=dtype, **options)
    old, old_exit = FROZEN[cls](solver, matrix, b)
    assert (old.status.value, old_exit) == (status, exit)
    assert_bit_identical(solver.solve(matrix, b), old)
