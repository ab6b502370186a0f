"""Tests for the Resource-Decision-loop design-space exploration."""

import pytest

from repro.core.design_space import (
    DesignPoint,
    dominates,
    evaluate_point,
    explore,
    pareto_front,
    recommend,
)
from repro.datasets.generators import sdd_matrix
from repro.experiments import runner


@pytest.fixture(scope="module")
def matrix():
    return sdd_matrix(512, 8.0, seed=21)


class TestEvaluation:
    def test_point_fields_consistent(self, matrix):
        point = evaluate_point(matrix, 32, 8, 0.15)
        assert point.sampling_rate == 32
        assert point.spmv_cycles > 0
        assert 0.0 <= point.underutilization <= 1.0
        assert point.reconfig_events >= 0
        assert point.reconfig_seconds >= 0.0

    def test_msid_cuts_reconfig_not_latency(self, matrix):
        raw = evaluate_point(matrix, 64, 0, 0.15)
        smoothed = evaluate_point(matrix, 64, 8, 0.15)
        assert smoothed.reconfig_events <= raw.reconfig_events
        assert smoothed.spmv_cycles == pytest.approx(raw.spmv_cycles, rel=0.1)

    def test_grid_size(self, matrix):
        points = explore(
            matrix, sampling_rates=(8, 32), ropts=(0, 8), tolerances=(0.15,)
        )
        assert len(points) == 4


class TestPareto:
    def test_dominance(self):
        better = DesignPoint(8, 8, 0.15, 100.0, 0.2, 3, 1e-4)
        worse = DesignPoint(8, 0, 0.15, 120.0, 0.3, 5, 2e-4)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_no_self_domination_on_ties(self):
        a = DesignPoint(8, 8, 0.15, 100.0, 0.2, 3, 1e-4)
        b = DesignPoint(16, 8, 0.15, 100.0, 0.2, 3, 1e-4)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_front_is_nondominated(self, matrix):
        points = explore(
            matrix,
            sampling_rates=(4, 16, 64),
            ropts=(0, 4, 8),
            tolerances=(0.15, 0.6),
        )
        front = pareto_front(points)
        assert front
        for p in front:
            assert not any(q.dominates(p) for q in points)

    @pytest.mark.parametrize("key", ["2C", "Wi", "Cr"])
    def test_paper_defaults_sit_near_the_frontier(self, key):
        """Ablation A5: no Pareto point of the default grid beats the
        paper's (S=32, rOpt=8, tol=0.15) by 20% in every objective."""
        matrix = runner.problem(key).matrix
        default = evaluate_point(matrix, 32, 8, 0.15)
        front = pareto_front(explore(matrix))
        assert front
        crushed = [
            p for p in front
            if p.spmv_cycles < default.spmv_cycles * 0.8
            and p.underutilization < default.underutilization * 0.8
            and p.reconfig_seconds < default.reconfig_seconds * 0.8
        ]
        assert not crushed, crushed[:2]

    def test_front_deduplicates_objective_ties(self, matrix):
        points = explore(
            matrix, sampling_rates=(32,), ropts=(8,), tolerances=(0.15, 0.15)
        )
        front = pareto_front(points)
        assert len(front) == 1


class TestParetoEdgeCases:
    """Generalized pareto_front on raw objective tuples via ``key``."""

    @staticmethod
    def front_ids(rows):
        return [
            identity
            for identity, _ in pareto_front(rows, key=lambda r: r[1])
        ]

    def test_module_level_dominance_predicate(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 3.0), (1.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 4.0), (2.0, 3.0))

    def test_single_point_space_is_its_own_front(self):
        assert self.front_ids([("only", (3.0, 7.0))]) == ["only"]

    def test_duplicate_points_collapse_to_first(self):
        rows = [("first", (1.0, 2.0)), ("second", (1.0, 2.0))]
        assert self.front_ids(rows) == ["first"]

    def test_tie_on_one_objective_keeps_both(self):
        rows = [("a", (1.0, 5.0)), ("b", (1.0, 3.0))]
        # b dominates a: equal first objective, strictly better second.
        assert self.front_ids(rows) == ["b"]
        rows = [("a", (1.0, 5.0)), ("b", (2.0, 3.0))]
        # Incomparable: tie-free trade-off keeps both, sorted by tuple.
        assert self.front_ids(rows) == ["a", "b"]

    def test_all_dominated_by_single_optimum(self):
        rows = [
            ("best", (0.0, 0.0)),
            ("mid", (1.0, 1.0)),
            ("worst", (2.0, 2.0)),
        ]
        assert self.front_ids(rows) == ["best"]

    def test_arbitrary_arity_tuples(self):
        rows = [
            ("a", (1.0, 1.0, 1.0, 1.0, 1.0)),
            ("b", (1.0, 1.0, 1.0, 1.0, 2.0)),
        ]
        assert self.front_ids(rows) == ["a"]

    def test_default_key_still_reads_objectives_attribute(self):
        better = DesignPoint(8, 8, 0.15, 100.0, 0.2, 3, 1e-4)
        worse = DesignPoint(8, 0, 0.15, 120.0, 0.3, 5, 2e-4)
        assert pareto_front([worse, better]) == [better]

    def test_empty_input_yields_empty_front(self):
        assert pareto_front([]) == []


class TestRecommend:
    def test_budget_respected_when_feasible(self, matrix):
        generous = recommend(
            matrix,
            reconfig_budget_seconds=1.0,
            sampling_rates=(8, 32, 64),
            ropts=(0, 8),
            tolerances=(0.15,),
        )
        assert generous.reconfig_seconds <= 1.0

    def test_tight_budget_falls_back_to_cheapest(self, matrix):
        tight = recommend(
            matrix,
            reconfig_budget_seconds=0.0,
            sampling_rates=(8, 32, 64),
            ropts=(0, 8),
            tolerances=(0.15,),
        )
        all_points = explore(
            matrix, sampling_rates=(8, 32, 64), ropts=(0, 8), tolerances=(0.15,)
        )
        cheapest = min(p.reconfig_seconds for p in pareto_front(all_points))
        assert tight.reconfig_seconds == pytest.approx(cheapest)

    def test_bigger_budget_never_slower(self, matrix):
        grid = dict(sampling_rates=(8, 32, 64), ropts=(0, 8), tolerances=(0.15,))
        small = recommend(matrix, 1e-4, **grid)
        big = recommend(matrix, 1.0, **grid)
        assert big.spmv_cycles <= small.spmv_cycles
