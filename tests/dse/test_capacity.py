"""Tests for the capacity planner."""

import math

import pytest

from repro.dse import CapacityQuery, is_feasible, plan_capacity
from repro.errors import ConfigurationError


def record(identity, rate=500.0, p99=10.0, shed=0.0, unaccounted=0,
           completed=100, fabric=1.0):
    return {
        "id": identity,
        "shape": {"slots_per_fleet": 2},
        "traffic": {"name": "t", "rate_rps": rate},
        "metrics": {
            "p99_ms": p99,
            "shed_rate": shed,
            "unaccounted": unaccounted,
            "completed": completed,
            "fabric_mm2_seconds": fabric,
            "area_mm2": 1.0,
            "gflops_per_watt": 1.0,
        },
    }


class TestCapacityQuery:
    @pytest.mark.parametrize("fields", [
        {"slo_p99_ms": 0.0},
        {"rate_rps": 0.0},
        {"max_shed_rate": -0.1},
        {"max_shed_rate": 1.5},
    ])
    def test_invalid_bounds_raise(self, fields):
        with pytest.raises(ConfigurationError):
            CapacityQuery(**fields)

    @pytest.mark.parametrize("field", [
        "slo_p99_ms", "rate_rps", "max_shed_rate",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_raise(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            CapacityQuery(**{field: value})


class TestFeasibility:
    def test_meets_everything(self):
        assert is_feasible(record("a"), CapacityQuery(slo_p99_ms=50.0))

    @pytest.mark.parametrize("overrides", [
        {"p99": 60.0},
        {"shed": 0.5},
        {"unaccounted": 3},
        {"completed": 0},
    ])
    def test_each_gate_rejects(self, overrides):
        assert not is_feasible(
            record("a", **overrides), CapacityQuery(slo_p99_ms=50.0)
        )


class TestPlanCapacity:
    def test_cheapest_fabric_wins(self):
        answer = plan_capacity(
            [record("pricey", fabric=5.0), record("thrifty", fabric=1.0)],
            CapacityQuery(rate_rps=400.0),
        )
        assert answer["cheapest"]["id"] == "thrifty"
        assert answer["feasible"] == ["thrifty", "pricey"]

    def test_id_breaks_fabric_ties(self):
        answer = plan_capacity(
            [record("bbb"), record("aaa")], CapacityQuery(rate_rps=400.0)
        )
        assert answer["cheapest"]["id"] == "aaa"

    def test_underpowered_traffic_is_not_evidence(self):
        answer = plan_capacity(
            [record("slow-lane", rate=100.0)],
            CapacityQuery(rate_rps=400.0),
        )
        assert answer["cheapest"] is None
        assert answer["considered"] == 0

    def test_no_feasible_point_yields_none(self):
        answer = plan_capacity(
            [record("hot", p99=500.0)], CapacityQuery(slo_p99_ms=50.0)
        )
        assert answer["cheapest"] is None
        assert answer["considered"] == 1
        assert answer["feasible"] == []

    def test_answer_echoes_query(self):
        query = CapacityQuery(
            slo_p99_ms=25.0, rate_rps=123.0, max_shed_rate=0.05
        )
        answer = plan_capacity([], query)
        assert answer["query"] == query.as_dict()
