"""Tests for convergence-history analysis and failure diagnosis."""

import math

import numpy as np
import pytest

from repro.analysis.convergence import (
    ResidualSummary,
    diagnose_failure,
    iterations_to_tolerance,
    summarize_residuals,
)
from repro.baselines import StaticDesign
from repro.datasets import load_problem, poisson_2d
from repro.solvers import ConjugateGradientSolver, SolveStatus
from repro.solvers.base import OpCounter, SolveResult


def make_result(history, status=SolveStatus.MAX_ITERATIONS, solver="cg"):
    return SolveResult(
        solver=solver,
        status=status,
        x=np.zeros(2, dtype=np.float32),
        iterations=len(history),
        residual_history=np.asarray(history, dtype=np.float64),
        ops=OpCounter(),
    )


class TestSummarize:
    def test_converging_trajectory(self):
        summary = summarize_residuals(make_result([1.0, 0.1, 0.01]))
        assert summary.initial == 1.0
        assert summary.final == 0.01
        assert summary.best == 0.01
        assert summary.monotone
        assert summary.rate == pytest.approx(0.1)

    def test_spiky_trajectory(self):
        summary = summarize_residuals(make_result([1.0, 50.0, 0.5]))
        assert not summary.monotone
        assert summary.peak == 50.0
        assert summary.peak_over_initial == 50.0

    def test_empty_history(self):
        summary = summarize_residuals(make_result([]))
        assert summary.iterations == 0
        assert math.isinf(summary.initial)
        assert summary.rate == 1.0

    def test_nonfinite_entries_ignored_in_extremes(self):
        summary = summarize_residuals(make_result([1.0, float("inf"), 0.5]))
        assert summary.peak == 1.0
        assert summary.best == 0.5

    def test_real_solve_summary(self):
        problem = poisson_2d(16)
        result = ConjugateGradientSolver().solve(problem.matrix, problem.b)
        summary = summarize_residuals(result)
        assert summary.iterations == result.iterations
        assert summary.best <= 1e-5
        assert 0.0 < summary.rate < 1.0


class TestExtrapolation:
    def test_already_converged(self):
        summary = summarize_residuals(make_result([1.0, 1e-6]))
        assert iterations_to_tolerance(summary, 1e-5) == 2.0

    def test_extrapolates_from_rate(self):
        # rate 0.1/iteration: 1e-5 needs 5 iterations from 1.0.
        summary = ResidualSummary(
            iterations=2, initial=1.0, final=0.1, best=0.1, peak=1.0,
            peak_over_initial=1.0, monotone=True, rate=0.1,
        )
        assert iterations_to_tolerance(summary, 1e-5) == pytest.approx(5.0)

    def test_no_progress_is_infinite(self):
        summary = summarize_residuals(make_result([1.0, 1.0, 1.0]))
        assert math.isinf(iterations_to_tolerance(summary, 1e-5))


class TestDiagnosis:
    def test_converged_result_short_circuit(self):
        problem = poisson_2d(12)
        result = ConjugateGradientSolver().solve(problem.matrix, problem.b)
        assert "converged" in diagnose_failure(problem.matrix, result)

    def test_cg_on_nonsymmetric_names_the_violation(self):
        problem = load_problem("If")
        result = StaticDesign("cg", 8).solve(problem.matrix, problem.b)
        message = diagnose_failure(problem.matrix, result)
        assert "non-symmetric" in message
        assert "Solver Modifier" in message

    def test_jacobi_on_non_dominant_names_eq1(self):
        problem = load_problem("2C")
        result = StaticDesign("jacobi", 8).solve(problem.matrix, problem.b)
        message = diagnose_failure(problem.matrix, result)
        assert "diagonally dominant" in message

    def test_bicgstab_on_symmetric_indefinite(self):
        problem = load_problem("Bc")
        result = StaticDesign("bicgstab", 8).solve(problem.matrix, problem.b)
        message = diagnose_failure(problem.matrix, result)
        assert "symmetric" in message

    def test_breakdown_mentioned(self):
        result = make_result([1.0], status=SolveStatus.BREAKDOWN)
        problem = poisson_2d(8)
        assert "breakdown" in diagnose_failure(problem.matrix, result)
