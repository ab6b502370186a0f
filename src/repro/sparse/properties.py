"""Structural-property analysis of sparse coefficient matrices.

Section III-B of the paper ties each solver's convergence guarantee to a
structural property of ``A``:

- Jacobi requires strict diagonal dominance (Eq. 1),
- CG requires symmetry and positive definiteness (Eq. 2–3),
- BiCG-STAB targets non-symmetric systems (Eq. 4).

The hardware's Matrix Structure unit checks only diagonal dominance and
symmetry (eigenvalue computation being too expensive); this module provides
those two checks in the same CSR/CSC fashion, plus optional heavier probes
(definiteness sampling, Jacobi iteration-matrix spectral radius) used by
tests and dataset engineering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix


_UNIT_ROUNDOFF = 2.0**-53
"""Unit roundoff ``u`` of float64."""


def is_strictly_diagonally_dominant(matrix: CSRMatrix) -> bool:
    """Check Eq. 1: for every row, ``sum_{j != i} |A_ij| < |A_ii|``.

    Rows with a zero (unstored) diagonal fail the test, as do empty rows.
    The float64 sum of a row's ``k`` magnitudes carries a relative
    rounding error of at most ``gamma_k = k u / (1 - k u)``, so a row is
    accepted only when ``|A_ii| > off_i (1 + gamma_k)``, ``k`` being the
    row length: rounding can then never make a weakly dominant row look
    strict, whatever the matrix's scale.
    """
    if matrix.shape[0] != matrix.shape[1]:
        return False
    diag = np.abs(matrix.diagonal())
    off_sums = _off_diagonal_abs_sums(matrix)
    ku = matrix.row_lengths() * _UNIT_ROUNDOFF
    bound = off_sums * (1.0 + ku / (1.0 - ku))
    return bool(np.all(bound < diag.astype(np.float64)))


def _off_diagonal_abs_sums(matrix: CSRMatrix) -> np.ndarray:
    """Per-row ``sum_{j != i} |A_ij|`` via a weighted bincount.

    ``np.bincount`` accumulates weights sequentially in array order, so
    this is bit-identical to the former ``np.add.at`` scatter while being
    a single C pass; ``row_ids`` comes from the matrix's structure cache.
    """
    row_of = matrix.row_ids()
    off_diag = row_of != matrix.indices
    off_vals = np.abs(matrix.data[off_diag].astype(np.float64))
    return np.bincount(
        row_of[off_diag], weights=off_vals, minlength=matrix.n_rows
    )


def diagonal_dominance_margin(matrix: CSRMatrix) -> np.ndarray:
    """Per-row margin ``|A_ii| - sum_{j != i} |A_ij|`` (positive = dominant)."""
    diag = np.abs(matrix.diagonal()).astype(np.float64)
    return diag - _off_diagonal_abs_sums(matrix)


def gershgorin_upper_bound(matrix: CSRMatrix) -> float:
    """``max_i (|A_ii| + sum_{j != i} |A_ij|)`` — the rightmost Gershgorin
    disc edge.  For a symmetric matrix this bounds ``lambda_max`` from
    above (for any matrix it bounds the spectral radius), so it is a safe
    cap where an iterative estimate may undershoot."""
    diag = np.abs(matrix.diagonal()).astype(np.float64)
    return float((diag + _off_diagonal_abs_sums(matrix)).max())


def is_symmetric(matrix: CSRMatrix, rtol: float = 1e-6) -> bool:
    """Check Eq. 2 the way the Matrix Structure unit does: CSR vs CSC.

    The CSC encoding of ``A`` is the CSR encoding of ``A.T`` (the cached
    :meth:`~repro.sparse.csr.CSRMatrix.transpose`); comparing it
    array-wise against the CSR input decides ``A == A.T``.  Values must
    agree to ``rtol`` with an absolute floor of ``rtol * max|A|``, so the
    verdict does not depend on the matrix's scale.

    A symmetric pattern stores as many entries in each column as in the
    row of the same index, so a column count that differs from its row
    length decides ``False`` before the transposition is built.
    """
    if matrix.shape[0] != matrix.shape[1]:
        return False
    column_counts = np.bincount(matrix.indices, minlength=matrix.n_cols)
    if not np.array_equal(column_counts, matrix.row_lengths()):
        return False
    transpose = matrix.transpose()
    if not transpose.structurally_equal(matrix):
        return False
    scale = float(np.abs(matrix.data).max(initial=0.0))
    # A non-finite entry would make the floor infinite; compare relatively.
    atol = rtol * scale if np.isfinite(scale) else 0.0
    return bool(
        np.allclose(transpose.data, matrix.data, rtol=rtol, atol=atol)
    )


def positive_definite_probe(
    matrix: CSRMatrix, n_probes: int = 16, seed: int = 0
) -> bool:
    """Randomized necessary test for positive definiteness.

    Draws ``n_probes`` random vectors and checks ``x.T A x > 0`` for each.
    A failure proves the matrix is not positive definite; all-pass is strong
    evidence of definiteness for the synthetic matrices used here.  The
    paper's hardware skips this check entirely (it trusts symmetry); the
    probe exists for dataset validation and the Table I criteria module.
    """
    if matrix.shape[0] != matrix.shape[1]:
        return False
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    for _ in range(n_probes):
        x = rng.standard_normal(n)
        if float(x @ matrix.matvec(x)) <= 0.0:
            return False
    return True


def estimate_spectral_radius(
    matvec, n: int, n_iters: int = 200, seed: int = 0, tol: float = 1e-8
) -> float:
    """Power iteration on an arbitrary ``matvec`` callable.

    Returns an estimate of the dominant |eigenvalue|.  Used to predict
    Jacobi convergence (``rho(D^-1 (L+U)) < 1``) when engineering datasets.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    radius = 0.0
    for _ in range(n_iters):
        y = matvec(x)
        norm = float(np.linalg.norm(y))
        if norm == 0.0 or not np.isfinite(norm):
            return norm
        y /= norm
        if abs(norm - radius) <= tol * max(radius, 1.0):
            return norm
        radius = norm
        x = y
    return radius


def jacobi_iteration_spectral_radius(
    matrix: CSRMatrix, n_iters: int = 200, seed: int = 0
) -> float:
    """Spectral radius of the Jacobi iteration matrix ``T = D^-1 (L + U)``.

    Jacobi converges for every starting guess iff this is below 1.  Strict
    diagonal dominance is the cheap sufficient condition the hardware
    checks; this estimate is the ground truth used in tests.
    """
    diag = matrix.diagonal().astype(np.float64)
    if np.any(diag == 0.0):
        return np.inf
    off = matrix.without_diagonal()

    def t_matvec(x: np.ndarray) -> np.ndarray:
        return off.matvec(x) / diag

    return estimate_spectral_radius(t_matvec, matrix.shape[0], n_iters, seed)


@dataclass(frozen=True)
class MatrixProperties:
    """Summary of the structural properties the accelerator reasons about."""

    n_rows: int
    n_cols: int
    nnz: int
    density: float
    strictly_diagonally_dominant: bool
    symmetric: bool

    @property
    def square(self) -> bool:
        return self.n_rows == self.n_cols


def analyze_properties(matrix: CSRMatrix, rtol: float = 1e-6) -> MatrixProperties:
    """Run the Matrix Structure unit's cheap checks and package the result."""
    return MatrixProperties(
        n_rows=matrix.shape[0],
        n_cols=matrix.shape[1],
        nnz=matrix.nnz,
        density=matrix.density,
        strictly_diagonally_dominant=is_strictly_diagonally_dominant(matrix),
        symmetric=is_symmetric(matrix, rtol=rtol),
    )
