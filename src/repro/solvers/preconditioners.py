"""Preconditioners for the Krylov solvers.

The paper's Table I lists preconditioned CG among the solver design
space; this module provides the classic sparse preconditioners from
scratch so :class:`~repro.solvers.pcg.PreconditionedCGSolver` (and user
code) can go beyond the diagonal:

- :class:`JacobiPreconditioner` — ``M = diag(A)``; one multiply per apply.
- :class:`SSORPreconditioner` — symmetric SOR splitting
  ``M = (D/ω + L) (D/ω)^-1 (D/ω + U) · ω/(2-ω)``; two triangular sweeps.
- :class:`ILU0Preconditioner` — incomplete LU with zero fill-in: the LU
  factors restricted to ``A``'s sparsity pattern, applied by forward and
  backward substitution.

All implement ``apply(r) -> z ≈ M^-1 r`` and report the dense-kernel cost
of one application for the cost model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import (
    ConfigurationError,
    SolverBreakdownError,
    UnknownNameError,
)
from repro.sparse.csr import CSRMatrix


class Preconditioner(ABC):
    """Interface: approximate solves with ``M ≈ A``."""

    name: str = "identity"

    @abstractmethod
    def apply(self, r: np.ndarray) -> np.ndarray:
        """Return ``z ≈ M^-1 r``."""

    @abstractmethod
    def apply_cost_elements(self) -> int:
        """Elements touched per application (for the dense cost model)."""


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (useful as a baseline in comparisons)."""

    name = "identity"

    def __init__(self, matrix: CSRMatrix) -> None:
        self._n = matrix.shape[0]

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r.copy()

    def apply_cost_elements(self) -> int:
        return 0


class JacobiPreconditioner(Preconditioner):
    """Diagonal scaling ``z = r / diag(A)``."""

    name = "jacobi"

    def __init__(self, matrix: CSRMatrix) -> None:
        diag = matrix.diagonal().astype(np.float64)
        if np.any(diag == 0):
            raise SolverBreakdownError(
                "Jacobi preconditioner needs a zero-free diagonal"
            )
        self._inv_diag = 1.0 / diag

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv_diag * r

    def apply_cost_elements(self) -> int:
        return len(self._inv_diag)


class SSORPreconditioner(Preconditioner):
    """Symmetric SOR preconditioner.

    One application performs a forward sweep with ``(D/ω + L)``, a
    diagonal scale, and a backward sweep with ``(D/ω + U)``.  Requires a
    zero-free diagonal and ``0 < ω < 2``.
    """

    name = "ssor"

    def __init__(self, matrix: CSRMatrix, omega: float = 1.0) -> None:
        if not 0.0 < omega < 2.0:
            raise ConfigurationError(f"SSOR needs 0 < omega < 2, got {omega}")
        diag = matrix.diagonal().astype(np.float64)
        if np.any(diag == 0):
            raise SolverBreakdownError(
                "SSOR preconditioner needs a zero-free diagonal"
            )
        self.omega = float(omega)
        self._matrix = matrix
        self._diag = diag
        self._n = matrix.shape[0]

    def apply(self, r: np.ndarray) -> np.ndarray:
        matrix, diag, omega = self._matrix, self._diag, self.omega
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        n = self._n
        scaled_diag = diag / omega
        # Forward solve (D/w + L) y = r.
        y = np.zeros(n, dtype=np.float64)
        r64 = r.astype(np.float64)
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi].astype(np.float64)
            below = cols < i
            acc = float(vals[below] @ y[cols[below]])
            y[i] = (r64[i] - acc) / scaled_diag[i]
        # Middle scale: z' = (D/w) y ... then backward solve (D/w + U) z = z'.
        mid = scaled_diag * y
        z = np.zeros(n, dtype=np.float64)
        for i in range(n - 1, -1, -1):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi].astype(np.float64)
            above = cols > i
            acc = float(vals[above] @ z[cols[above]])
            z[i] = (mid[i] - acc) / scaled_diag[i]
        return z * (2.0 - omega) / omega

    def apply_cost_elements(self) -> int:
        return 2 * self._matrix.nnz + self._n


class ILU0Preconditioner(Preconditioner):
    """Incomplete LU factorization with zero fill-in.

    Computes ``A ≈ L U`` where ``L`` (unit lower) and ``U`` (upper) are
    restricted to ``A``'s sparsity pattern (the classic IKJ variant), and
    applies ``M^-1 r`` by forward/backward substitution.  Raises
    :class:`SolverBreakdownError` on a zero pivot, as a hardware
    implementation would flag.
    """

    name = "ilu0"

    def __init__(self, matrix: CSRMatrix) -> None:
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError("ILU(0) needs a square matrix")
        self._matrix = matrix
        self._n = matrix.shape[0]
        self._factor = matrix.data.astype(np.float64).copy()
        self._factorize()

    def _factorize(self) -> None:
        n = self._n
        indptr, indices = self._matrix.indptr, self._matrix.indices
        factor = self._factor
        # Position of each (row, col) entry for pattern lookups.
        position: dict[tuple[int, int], int] = {}
        row_of = self._matrix.row_ids()
        for idx, (r, c) in enumerate(zip(row_of, indices)):
            position[(int(r), int(c))] = idx
        diag_pos = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            if (i, i) in position:
                diag_pos[i] = position[(i, i)]
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            for kk in range(lo, hi):
                k = int(indices[kk])
                if k >= i:
                    break
                pivot_pos = diag_pos[k]
                if pivot_pos < 0 or factor[pivot_pos] == 0.0:
                    raise SolverBreakdownError(
                        f"ILU(0) zero pivot at row {k}"
                    )
                factor[kk] /= factor[pivot_pos]
                multiplier = factor[kk]
                # Subtract multiplier * U[k, j] for j in row i's pattern.
                for jj in range(kk + 1, hi):
                    j = int(indices[jj])
                    u_pos = position.get((k, j))
                    if u_pos is not None:
                        factor[jj] -= multiplier * factor[u_pos]
            if diag_pos[i] < 0 or factor[diag_pos[i]] == 0.0:
                raise SolverBreakdownError(f"ILU(0) zero pivot at row {i}")
        self._diag_pos = diag_pos

    def apply(self, r: np.ndarray) -> np.ndarray:
        n = self._n
        indptr, indices = self._matrix.indptr, self._matrix.indices
        factor = self._factor
        # Forward: L y = r (unit diagonal).
        y = np.zeros(n, dtype=np.float64)
        r64 = r.astype(np.float64)
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            acc = r64[i]
            for kk in range(lo, hi):
                k = int(indices[kk])
                if k >= i:
                    break
                acc -= factor[kk] * y[k]
            y[i] = acc
        # Backward: U z = y.
        z = np.zeros(n, dtype=np.float64)
        for i in range(n - 1, -1, -1):
            lo, hi = indptr[i], indptr[i + 1]
            acc = y[i]
            for kk in range(hi - 1, lo - 1, -1):
                k = int(indices[kk])
                if k <= i:
                    break
                acc -= factor[kk] * z[k]
            z[i] = acc / factor[self._diag_pos[i]]
        return z

    def apply_cost_elements(self) -> int:
        return 2 * self._matrix.nnz

    def factor_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize L (unit diagonal) and U as dense arrays (tests)."""
        n = self._n
        lower = np.eye(n)
        upper = np.zeros((n, n))
        row_of = self._matrix.row_ids()
        for idx, (r, c) in enumerate(zip(row_of, self._matrix.indices)):
            if c < r:
                lower[r, c] = self._factor[idx]
            else:
                upper[r, c] = self._factor[idx]
        return lower, upper


PRECONDITIONER_REGISTRY = {
    "identity": IdentityPreconditioner,
    "jacobi": JacobiPreconditioner,
    "ssor": SSORPreconditioner,
    "ilu0": ILU0Preconditioner,
}
"""Name → class, for CLI/experiment configuration."""


def make_preconditioner(
    name: str, matrix: CSRMatrix, **kwargs
) -> Preconditioner:
    """Instantiate a preconditioner by registry name."""
    try:
        cls = PRECONDITIONER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PRECONDITIONER_REGISTRY))
        raise UnknownNameError(
            f"unknown preconditioner {name!r}; known: {known}"
        ) from None
    return cls(matrix, **kwargs)
