"""Tests for the ASCII residual-history renderer."""

import numpy as np

from repro.analysis.convergence import render_residual_history
from repro.datasets import poisson_2d
from repro.solvers import ConjugateGradientSolver
from repro.solvers.base import OpCounter, SolveResult, SolveStatus


def make_result(history):
    return SolveResult(
        solver="cg",
        status=SolveStatus.CONVERGED,
        x=np.zeros(1, dtype=np.float32),
        iterations=len(history),
        residual_history=np.asarray(history, dtype=np.float64),
        ops=OpCounter(),
    )


class TestRenderer:
    def test_real_solve_renders(self):
        problem = poisson_2d(16)
        result = ConjugateGradientSolver().solve(problem.matrix, problem.b)
        art = render_residual_history(result)
        lines = art.splitlines()
        assert len(lines) == 10  # 8 bands + axis + caption
        assert "final" in lines[-1]
        # Converging solve: the top band has fewer marks than the bottom.
        assert lines[0].count("#") < lines[-3].count("#")

    def test_empty_history(self):
        assert "no finite residuals" in render_residual_history(make_result([]))

    def test_nonfinite_entries_handled(self):
        art = render_residual_history(make_result([1.0, float("inf"), 0.5]))
        assert "iterations 1..3" in art

    def test_flat_history_does_not_crash(self):
        art = render_residual_history(make_result([0.5, 0.5, 0.5]))
        assert "iterations 1..3" in art

    def test_width_buckets_long_histories(self):
        history = np.geomspace(1.0, 1e-6, 500)
        art = render_residual_history(make_result(history), width=40)
        first_band = art.splitlines()[0]
        assert len(first_band) <= len("10^+000.0 |") + 40 + 2
