"""Multicolor Gauss-Seidel (vectorizable GS, extension solver).

Plain Gauss-Seidel updates rows sequentially — fine mathematically,
hopeless for wide hardware.  Multicolor GS reorders the sweep by graph
color: rows of one color have no mutual coupling, so each color class
updates as one vectorized Jacobi-style step *using the freshest values of
all other colors*.  For the 5-point Laplacian this is the textbook
red-black Gauss-Seidel; convergence matches lexicographic GS to within a
constant while every step is a full-width SpMV — exactly the execution
shape Acamar's SpMV unit wants.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import (
    IterativeSolver,
    SolveResult,
    tolerate_float_excursions,
)
from repro.solvers.kernels import Kernels
from repro.sparse.coloring import color_classes, greedy_coloring
from repro.sparse.csr import CSRMatrix


class MulticolorGaussSeidelSolver(IterativeSolver):
    """Gauss-Seidel swept in greedy-coloring order, one color per step."""

    name = "multicolor_gs"

    @tolerate_float_excursions
    def solve(
        self,
        matrix: CSRMatrix,
        b: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> SolveResult:
        matrix, b, x = self._prepare(matrix, b, x0)
        diag = matrix.diagonal().astype(np.float64)
        if np.any(diag == 0):
            return self._breakdown(x)
        colors = greedy_coloring(matrix)
        classes = color_classes(colors)
        # Per-color off-diagonal row slices, pre-extracted for vector steps.
        off_diag = matrix.without_diagonal()
        k = Kernels(matrix)

        monitor = self._monitor(b)
        x64 = x.astype(np.float64)
        b64 = b.astype(np.float64)
        status = None
        while status is None:
            for rows in classes:
                # One vectorized step: rows of this color read only other
                # colors' (already updated) values.
                coupled = k.spmv(x64, off_diag)
                x64[rows] = k.divide(b64[rows] - coupled[rows], diag[rows])
            status = monitor.update(k.norm(k.vsub(b64, k.spmv(x64))))
        return self._result(status, x64.astype(self.dtype), monitor, k)
