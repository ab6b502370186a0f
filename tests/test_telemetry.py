"""Tests for the span/counter telemetry layer."""

import json

import pytest

from repro import telemetry as tm
from repro.telemetry import TELEMETRY_SCHEMA_VERSION, SpanStats, Telemetry


class TestSpanStats:
    def test_record_accumulates(self):
        stats = SpanStats()
        stats.record(2.0)
        stats.record(4.0)
        assert stats.count == 2
        assert stats.total_ms == 6.0
        assert stats.mean_ms == 3.0
        assert stats.max_ms == 4.0

    def test_empty_mean_is_zero(self):
        assert SpanStats().mean_ms == 0.0

    def test_merged_with(self):
        a = SpanStats(count=2, total_ms=10.0, max_ms=7.0)
        b = SpanStats(count=1, total_ms=3.0, max_ms=3.0)
        merged = a.merged_with(b)
        assert merged.count == 3
        assert merged.total_ms == 13.0
        assert merged.max_ms == 7.0


class TestTelemetry:
    def test_span_records_wall_time(self):
        collector = Telemetry()
        with collector.span("stage"):
            pass
        assert collector.spans["stage"].count == 1
        assert collector.spans["stage"].total_ms >= 0.0

    def test_counters(self):
        collector = Telemetry()
        collector.count("events")
        collector.count("events", 4)
        assert collector.counters["events"] == 5

    def test_merge_with_collector(self):
        a = Telemetry()
        with a.span("stage"):
            pass
        a.count("events", 2)
        b = Telemetry()
        with b.span("stage"):
            pass
        b.count("events", 3)
        a.merge(b)
        assert a.spans["stage"].count == 2
        assert a.counters["events"] == 5
        assert b.spans["stage"].count == 1
        assert b.counters["events"] == 3

    def test_pickled_collector_merges_like_the_original(self):
        # Pool workers send their collectors back pickled, as they are.
        import pickle

        collector = Telemetry()
        with collector.span("stage"):
            pass
        collector.count("events", 2)
        direct, shipped = Telemetry(), Telemetry()
        direct.merge(collector)
        shipped.merge(pickle.loads(pickle.dumps(collector)))
        assert shipped.as_dict() == direct.as_dict()

    def test_as_dict_schema(self):
        collector = Telemetry()
        with collector.span("stage"):
            pass
        collector.count("events")
        document = collector.as_dict()
        assert document["schema_version"] == TELEMETRY_SCHEMA_VERSION
        stage = document["spans"]["stage"]
        assert set(stage) == {"count", "total_ms", "mean_ms", "max_ms"}
        assert document["counters"] == {"events": 1}

    def test_write_json(self, tmp_path):
        collector = Telemetry()
        collector.count("events")
        path = collector.write_json(tmp_path / "telemetry.json")
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["events"] == 1

    def test_merge_with_empty_collector_is_noop(self):
        collector = Telemetry()
        collector.count("events")
        collector.merge(Telemetry())
        assert collector.counters == {"events": 1}
        assert collector.spans == {}

    def test_merge_zero_count_span(self):
        # Zero-count spans appear when a worker opened a stage name but
        # recorded nothing; merging one must not skew mean/max.
        collector = Telemetry()
        with collector.span("stage"):
            pass
        before = collector.spans["stage"].as_dict()
        idle = Telemetry()
        idle.spans["stage"] = SpanStats()
        idle.spans["fresh"] = SpanStats()
        collector.merge(idle)
        after = collector.spans["stage"]
        assert after.count == 1
        assert after.as_dict() == before
        assert collector.spans["fresh"].count == 0
        assert collector.spans["fresh"].mean_ms == 0.0


class TestPercentile:
    def test_empty_and_singleton(self):
        from repro.telemetry import percentile

        assert percentile([], 50.0) == 0.0
        assert percentile([3.0], 99.0) == 3.0

    def test_matches_numpy_linear_interpolation(self):
        import numpy as np

        from repro.telemetry import percentile

        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )


class TestModuleLevelAPI:
    def test_noop_without_active_collector(self):
        assert tm.active() is None
        with tm.span("ignored"):
            pass
        tm.count("ignored")  # must not raise

    def test_activation_routes_to_collector(self):
        collector = Telemetry()
        with collector.activate():
            assert tm.active() is collector
            with tm.span("stage"):
                tm.count("events")
        assert tm.active() is None
        assert collector.spans["stage"].count == 1
        assert collector.counters["events"] == 1

    def test_activation_nests_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        with outer.activate():
            with inner.activate():
                tm.count("events")
            tm.count("events")
        assert inner.counters["events"] == 1
        assert outer.counters["events"] == 1

    def test_instrumented_solve_records_decision_loop(self):
        from repro import Acamar
        from repro.datasets import poisson_2d

        problem = poisson_2d(12)
        collector = Telemetry()
        with collector.activate():
            Acamar().solve(problem.matrix, problem.b)
        assert collector.spans["matrix_structure.select"].count == 1
        assert collector.spans["fine_grained.plan"].count == 1
        assert collector.spans["reconfigurable_solver.attempt"].count >= 1
        assert collector.counters["solver_attempts.cg"] >= 1
