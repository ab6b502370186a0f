"""The paper's three solvers against an independent float64 oracle.

Each solver runs in float64 on the matrix class it is chosen for: CG on
SPD Poisson, BiCG-STAB on nonsymmetric convection-diffusion and Jacobi on
a strictly diagonally dominant operator.  Two checks use scipy, not the
repo's own kernels:

- the true relative residual ``||b - A x|| / ||b||``, recomputed with a
  scipy product, meets the tolerance (the solvers stop on a recursive
  residual, which need not match it);
- the forward error against ``scipy.sparse.linalg.spsolve`` is at most
  ``kappa_2(A) * tol``.  That bound is a theorem: the relative error is
  at most the condition number times the relative residual.

At tolerance 1e-5 the true residuals are about 9.6e-6 (CG), 1.4e-6
(BiCG-STAB) and 1.7e-6 (Jacobi).

One more case runs BiCG-STAB in its default float32 on a 128x128
convection-diffusion operator, whose iterates reach float32 subnormals:
no SpMV operand may hold one (the SpMV unit flushes them, as the
fabric's operators do), and the flushed solve still meets the scipy
true-residual check (about 0.94x the tolerance).
"""

import numpy as np
import pytest

from repro import datasets
from repro.solvers import SolveStatus, make_solver
from repro.sparse import CSRMatrix

TOLERANCE = 1e-5


def _sdd_problem():
    matrix = datasets.sdd_matrix(800, 8.0, seed=1, symmetric=False,
                                 dominance=1.05)
    return datasets.manufacture_problem("sdd_800", matrix, seed=1)


CASES = {
    "cg": lambda: datasets.poisson_2d(32),
    "bicgstab": lambda: datasets.convection_diffusion_2d(32),
    "jacobi": _sdd_problem,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solution_meets_scipy_oracle(name):
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    problem = CASES[name]()
    m = problem.matrix
    a = sparse.csr_matrix(
        (m.data.astype(np.float64), m.indices, m.indptr), shape=m.shape
    )
    b = np.asarray(problem.b, dtype=np.float64)

    result = make_solver(name, tolerance=TOLERANCE, dtype=np.float64).solve(
        m, b
    )
    assert result.status is SolveStatus.CONVERGED

    true_residual = np.linalg.norm(b - a @ result.x) / np.linalg.norm(b)
    assert true_residual <= TOLERANCE

    reference = linalg.spsolve(a.tocsc(), b)
    forward_error = np.linalg.norm(result.x - reference) / np.linalg.norm(
        reference
    )
    kappa = np.linalg.cond(a.toarray())
    assert forward_error <= kappa * TOLERANCE


def test_float32_bicgstab_spmv_operands_hold_no_subnormals(monkeypatch):
    sparse = pytest.importorskip("scipy.sparse")
    problem = datasets.convection_diffusion_2d(128, seed=1)
    matvec = CSRMatrix.matvec
    subnormals = []

    def spy(self, x):
        tiny = np.finfo(x.dtype).tiny
        subnormals.append(int(np.count_nonzero((np.abs(x) < tiny) & (x != 0))))
        return matvec(self, x)

    monkeypatch.setattr(CSRMatrix, "matvec", spy)
    result = make_solver("bicgstab", tolerance=TOLERANCE).solve(
        problem.matrix, problem.b
    )
    monkeypatch.undo()

    assert len(subnormals) == result.ops.spmv_count()
    assert not any(subnormals)
    assert result.status is SolveStatus.CONVERGED
    m = problem.matrix
    a = sparse.csr_matrix(
        (m.data.astype(np.float64), m.indices, m.indptr), shape=m.shape
    )
    b = np.asarray(problem.b, dtype=np.float64)
    x = result.x.astype(np.float64)
    assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= TOLERANCE
