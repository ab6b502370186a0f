"""Tests for the Acamar accelerator orchestration (both decision loops)."""

import numpy as np
import pytest

from repro import Acamar, AcamarConfig
from repro.core.matrix_structure import SELECTION_POLICIES
from repro.datasets import dataset_keys, load_problem, poisson_2d
from repro.datasets.generators import spd_clique_skew_matrix
from repro.errors import ShapeMismatchError, ValidationError
from repro.experiments import runner
from repro.solvers.base import SolveStatus
from repro.sparse import CSRMatrix


class TestSolverDecisionLoop:
    def test_direct_convergence_single_attempt(self):
        problem = poisson_2d(16)
        result = Acamar().solve(problem.matrix, problem.b)
        assert result.converged
        assert result.solver_sequence == ("cg",)
        assert result.solver_reconfigurations == 0

    def test_modifier_fires_when_selection_diverges(self):
        """Bc-class matrix is symmetric -> CG selected; CG converges.
        Use a symmetric matrix where CG diverges to force a swap: the
        skew construction is non-symmetric, so instead check a dataset
        whose structure-selected solver fails."""
        problem = load_problem("Ct")  # SDD mixed-sign: jacobi selected, works
        result = Acamar().solve(problem.matrix, problem.b)
        assert result.converged
        assert result.selection.solver == result.solver_sequence[0]

    def test_fallback_sequence_on_engineered_failure(self):
        """Force the first attempt to fail by overriding the fallback
        order so the structure-selected solver is wrong for the matrix."""
        matrix = spd_clique_skew_matrix(512, 6.0, seed=11)  # only bicgstab works
        rng = np.random.default_rng(0)
        b = matrix.matvec(rng.standard_normal(512)).astype(np.float32)
        config = AcamarConfig(
            max_iterations=600,
            solver_fallback_order=("jacobi", "cg", "bicgstab"),
        )
        acamar = Acamar(config)
        # Matrix is non-symmetric, not SDD: bicgstab selected directly.
        result = acamar.solve(matrix, b)
        assert result.converged
        assert result.solver_sequence[0] == "bicgstab"

    def test_sequence_records_selected_by(self):
        problem = load_problem("Fe")
        result = Acamar().solve(problem.matrix, problem.b)
        assert result.attempts[0].selected_by == "matrix_structure"
        for attempt in result.attempts[1:]:
            assert attempt.selected_by == "solver_modifier"

    def test_all_table2_datasets_converge(self):
        """The paper's headline: Acamar column of Table II is all checkmarks.
        (Subset here; the Table II claim of
        ``repro.experiments.summary.collect`` covers all 25.)"""
        for key in ("2C", "Wi", "If", "Fe", "Bc"):
            problem = load_problem(key)
            result = Acamar().solve(problem.matrix, problem.b)
            assert result.converged, key

    def test_symmetry_first_needs_fewest_solver_swaps(self):
        """Ablation A2: the shipped selection order against the other two
        policies over the Table II stand-ins; no analysis at all (always
        BiCG-STAB) pays a swap on every CG-only or Jacobi-only dataset."""
        swaps = dict.fromkeys(SELECTION_POLICIES, 0)
        for key in dataset_keys():
            problem = runner.problem(key)
            for policy in SELECTION_POLICIES:
                result = (
                    runner.acamar_result(key)  # the shipped policy
                    if policy == "symmetry_first"
                    else Acamar(structure_policy=policy).solve(
                        problem.matrix, problem.b
                    )
                )
                assert result.converged, (key, policy)
                swaps[policy] += result.solver_reconfigurations
        assert swaps["symmetry_first"] < swaps["always_bicgstab"]
        assert swaps["symmetry_first"] <= swaps["dominance_first"]

    def test_solution_accuracy(self):
        problem = poisson_2d(20)
        result = Acamar().solve(problem.matrix, problem.b)
        assert problem.relative_error(result.x) < 1e-2
        assert problem.residual_norm(result.x) < 1e-4


class TestResourceDecisionLoop:
    def test_plan_only_path(self):
        problem = poisson_2d(16)
        plan = Acamar().plan(problem.matrix)
        assert plan.sets
        assert len(plan.unroll_for_rows) == problem.n

    def test_plan_respects_config(self):
        problem = poisson_2d(16)
        acamar = Acamar(AcamarConfig(sampling_rate=8, r_opt=0))
        plan = acamar.solve(problem.matrix, problem.b).plan
        assert len(plan.sets) == 8
        assert plan.msid.stages == 0

    def test_spmv_reconfigurations_property(self):
        problem = load_problem("Cr")
        result = Acamar().solve(problem.matrix, problem.b)
        assert result.spmv_reconfigurations == result.plan.reconfiguration_count


class TestAccounting:
    def test_total_ops_merges_attempts(self):
        problem = poisson_2d(12)
        result = Acamar().solve(problem.matrix, problem.b)
        total = result.total_ops()
        per_attempt = sum(
            a.result.ops.spmv_count() for a in result.attempts
        )
        assert total.spmv_count() == per_attempt

    def test_x_property_is_final_solution(self):
        problem = poisson_2d(12)
        result = Acamar().solve(problem.matrix, problem.b)
        np.testing.assert_array_equal(result.x, result.final.x)

    def test_config_precision_respected(self):
        problem = poisson_2d(12)
        acamar = Acamar(AcamarConfig(dtype=np.float64))
        result = acamar.solve(problem.matrix, problem.b)
        assert result.x.dtype == np.float64

    def test_warm_start_passes_through(self):
        problem = poisson_2d(12)
        acamar = Acamar()
        cold = acamar.solve(problem.matrix, problem.b)
        warm = acamar.solve(problem.matrix, problem.b, x0=cold.x)
        assert warm.final.iterations <= cold.final.iterations


class TestFaultHookExhaustion:
    """Forced divergence through the fault_hook seam (repro.faults uses
    the same seam): the Solver Modifier must walk the whole chain, stop
    cleanly, and the per-solver attempt counters must equal the chain."""

    def test_forced_divergence_exhausts_full_chain(self):
        from collections import Counter

        import dataclasses

        from repro.solvers.base import SolveStatus
        from repro.telemetry import Telemetry

        forced = []

        def always_diverge(solver_name, attempt_index, result):
            forced.append((attempt_index, solver_name))
            return dataclasses.replace(result, status=SolveStatus.DIVERGED)

        problem = poisson_2d(12)
        config = AcamarConfig()
        collector = Telemetry()
        with collector.activate():
            result = Acamar(config, fault_hook=always_diverge).solve(
                problem.matrix, problem.b
            )
        # The full chain: structure selection first, then every untried
        # fallback solver exactly once, in preference order.
        expected = [result.selection.solver] + [
            s
            for s in config.solver_fallback_order
            if s != result.selection.solver
        ]
        assert list(result.solver_sequence) == expected
        assert not result.converged
        assert result.solver_reconfigurations == len(expected) - 1
        # The hook saw every attempt, in order.
        assert forced == list(enumerate(expected))
        # solver_attempts.<name> counters agree with the attempt chain.
        attempt_counts = {
            name.removeprefix("solver_attempts."): value
            for name, value in collector.counters.items()
            if name.startswith("solver_attempts.")
        }
        assert attempt_counts == dict(Counter(result.solver_sequence))
        assert collector.counters["solver_swaps"] == len(expected) - 1

    def test_partial_budget_recovers_on_next_solver(self):
        import dataclasses

        from repro.solvers.base import SolveStatus

        def diverge_first_only(solver_name, attempt_index, result):
            if attempt_index == 0:
                return dataclasses.replace(
                    result, status=SolveStatus.DIVERGED
                )
            return None

        problem = poisson_2d(12)
        result = Acamar(fault_hook=diverge_first_only).solve(
            problem.matrix, problem.b
        )
        assert result.converged
        assert len(result.attempts) == 2
        assert result.attempts[0].result.status is SolveStatus.DIVERGED
        assert result.attempts[1].selected_by == "solver_modifier"

    def test_none_hook_result_leaves_attempt_untouched(self):
        calls = []

        def observe_only(solver_name, attempt_index, result):
            calls.append(solver_name)
            return None

        problem = poisson_2d(12)
        result = Acamar(fault_hook=observe_only).solve(
            problem.matrix, problem.b
        )
        assert result.converged
        assert result.solver_sequence == ("cg",)
        assert calls == ["cg"]


class TestOperandValidation:
    """Input no solver can use is refused before either decision loop."""

    @staticmethod
    def _with(vector, index, value):
        out = np.array(vector, dtype=np.float64)
        out[index] = value
        return out

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_b(self, value):
        problem = poisson_2d(8)
        b = self._with(problem.b, 5, value)
        with pytest.raises(ValidationError, match=r"^b\[5\] is "):
            Acamar().solve(problem.matrix, b)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0(self, value):
        problem = poisson_2d(8)
        x0 = self._with(np.zeros(problem.n), 11, value)
        with pytest.raises(ValidationError, match=r"^x0\[11\] is "):
            Acamar().solve(problem.matrix, problem.b, x0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_stored_value(self, value):
        problem = poisson_2d(8)
        data = self._with(problem.matrix.data, 30, value)
        matrix = problem.matrix.with_data(data)
        with pytest.raises(ValidationError, match=r"^matrix\.data\[30\] is "):
            Acamar().solve(matrix, problem.b)

    def test_first_bad_index_is_named(self):
        problem = poisson_2d(8)
        b = self._with(self._with(problem.b, 9, np.inf), 40, np.nan)
        with pytest.raises(ValidationError, match=r"^b\[9\] is inf"):
            Acamar().solve(problem.matrix, b)

    @pytest.mark.parametrize(
        "b", [np.ones(63), np.ones((64, 1)), np.ones((8, 8))],
        ids=["short", "column", "square"],
    )
    def test_misshapen_b(self, b):
        problem = poisson_2d(8)
        with pytest.raises(ShapeMismatchError, match=r"^b must have shape"):
            Acamar().solve(problem.matrix, b)

    def test_misshapen_x0(self):
        problem = poisson_2d(8)
        with pytest.raises(ShapeMismatchError, match=r"^x0 must have shape"):
            Acamar().solve(problem.matrix, problem.b, np.zeros(65))

    def test_refused_before_the_decision_loops(self):
        from repro.telemetry import Telemetry

        problem = poisson_2d(8)
        b = self._with(problem.b, 0, np.nan)
        collector = Telemetry()
        with collector.activate(), pytest.raises(ValidationError):
            Acamar().solve(problem.matrix, b)
        assert collector.spans == {}
        assert collector.counters == {}

    @pytest.mark.parametrize("dense", [
        [[0.0, 1.0], [-1.0, 0.0]],
        [[0.0, 2.0, 0.0], [1.0, 0.0, 1.0], [0.0, 3.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0]],
    ], ids=["skew", "nonsymmetric", "symmetric"])
    def test_zero_diagonal_ends_in_a_clean_result(self, dense):
        matrix = CSRMatrix.from_dense(np.array(dense))
        result = Acamar().solve(matrix, np.ones(matrix.n_rows))
        assert result.attempts
        for attempt in result.attempts:
            assert isinstance(attempt.result.status, SolveStatus)
        if result.converged:
            assert np.all(np.isfinite(result.x))

    def test_campaign_records_a_failure_row(self):
        from repro.campaign import run_campaign
        from repro.datasets.problem import Problem

        good = poisson_2d(8)
        bad = Problem(
            name="nan_rhs", matrix=good.matrix,
            b=self._with(good.b, 3, np.nan),
        )
        report = run_campaign([bad, good])
        first, second = report.entries
        assert first.failed
        assert first.failure.startswith("ValidationError: b[3] is nan")
        assert second.converged
