"""Tests for the hardware performance-counter snapshot."""

import pytest

from repro import Acamar
from repro.datasets import load_problem, poisson_2d
from repro.fpga import collect_counters


@pytest.fixture(scope="module")
def solved():
    problem = poisson_2d(24)
    result = Acamar().solve(problem.matrix, problem.b)
    return problem, result


class TestCounters:
    def test_snapshot_consistency(self, solved):
        problem, result = solved
        counters = collect_counters(problem.matrix, result)
        assert counters.solver_sequence == result.solver_sequence
        assert counters.iterations == result.final.iterations
        assert 0.0 < counters.spmv_occupancy <= 1.0
        assert counters.compute_seconds > 0
        assert counters.gflops > 0

    def test_busy_cycles_match_work(self, solved):
        """Busy MAC-cycles = nnz swept x sweeps (CG sweeps full A)."""
        problem, result = solved
        counters = collect_counters(problem.matrix, result)
        expected = problem.matrix.nnz * counters.spmv_sweeps
        assert counters.spmv_busy_mac_cycles == expected

    def test_swap_counters_on_multi_attempt_solve(self):
        problem = load_problem("Fe")
        result = Acamar().solve(problem.matrix, problem.b)
        counters = collect_counters(problem.matrix, result)
        assert counters.solver_swaps == result.solver_reconfigurations
        if counters.solver_swaps:
            assert counters.solver_swap_seconds > 0

    def test_rendered_lines(self, solved):
        problem, result = solved
        lines = collect_counters(problem.matrix, result).to_lines()
        assert len(lines) == 11
        assert any("occupancy" in line for line in lines)
