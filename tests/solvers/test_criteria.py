"""Tests for the Table I convergence-criteria registry."""

import numpy as np
import pytest

from repro.solvers.criteria import criteria_table, criterion_for
from repro.sparse import CSRMatrix


@pytest.fixture
def spd(spd_system):
    return spd_system[0]


@pytest.fixture
def sdd_nonsym():
    from repro.datasets.generators import sdd_matrix

    return sdd_matrix(64, 5.0, seed=2, symmetric=False)


class TestTable:
    def test_has_eleven_rows_like_the_paper(self):
        assert len(criteria_table()) == 11

    def test_paper_solver_rows_present(self):
        solvers = {c.solver for c in criteria_table()}
        assert {"jacobi", "cg", "bicgstab", "gauss_seidel", "sor", "gmres"} <= solvers

    def test_lookup(self):
        assert criterion_for("cg").description == "Symmetric, Positive Definite"

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="no Table I entry"):
            criterion_for("nope")

    def test_documented_only_rows_return_none(self, spd):
        assert criterion_for("preconditioned_cg").satisfied_by(spd) is None
        assert criterion_for("concus_golub_widlund").satisfied_by(spd) is None


class TestPredicates:
    def test_jacobi_criterion(self, spd, sdd_nonsym):
        criterion = criterion_for("jacobi")
        assert criterion.satisfied_by(spd)  # SPD fixture is also SDD
        assert criterion.satisfied_by(sdd_nonsym)
        weak = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not criterion.satisfied_by(weak)

    def test_cg_criterion(self, spd, sdd_nonsym):
        criterion = criterion_for("cg")
        assert criterion.satisfied_by(spd)
        assert not criterion.satisfied_by(sdd_nonsym)
        indefinite = CSRMatrix.from_dense(np.diag([1.0, -1.0]))
        assert not criterion.satisfied_by(indefinite)

    def test_bicgstab_criterion(self, spd, sdd_nonsym):
        criterion = criterion_for("bicgstab")
        assert criterion.satisfied_by(sdd_nonsym)
        assert not criterion.satisfied_by(spd)

    def test_gmres_criterion(self, spd):
        criterion = criterion_for("gmres")
        assert criterion.satisfied_by(spd)
        negative = CSRMatrix.from_dense(-np.eye(8))
        assert not criterion.satisfied_by(negative)

    @pytest.mark.parametrize("solver, key, satisfied", [
        ("jacobi", "Wa", True),
        ("jacobi", "2C", False),
        ("cg", "2C", True),
        ("bicgstab", "If", True),
    ])
    def test_predicates_on_stand_ins(self, solver, key, satisfied):
        from repro.datasets import load_matrix

        assert criterion_for(solver).satisfied_by(load_matrix(key)) is satisfied

    def test_criteria_predict_solver_outcomes_on_suite(self):
        """Where a Table I predicate holds, the solver must converge."""
        from repro.baselines import run_solver_portfolio
        from repro.datasets import load_problem

        for key in ("Wa", "Fe", "2C"):
            problem = load_problem(key)
            results = run_solver_portfolio(problem.matrix, problem.b)
            for solver in ("jacobi", "cg"):
                satisfied = criterion_for(solver).satisfied_by(problem.matrix)
                if satisfied:
                    assert results[solver].converged, (key, solver)
