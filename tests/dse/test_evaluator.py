"""Tests for end-to-end design-point evaluation and the sweep."""

import pytest

import repro.dse.evaluator as evaluator
from repro.config import AcamarConfig
from repro.dse import (
    DesignSpace,
    FleetShape,
    TrafficSpec,
    acamar_config_for,
    cluster_config_for,
    evaluate_items,
    evaluate_point,
    point_id,
    run_sweep,
)
from repro.errors import ConfigurationError
from repro.faults.injectors import ChaosExecutorFactory
from repro.faults.plan import PoolFaultSchedule
from repro.parallel import WorkItem
from repro.telemetry import Telemetry


def tiny_shape(**overrides):
    fields = dict(
        slots_per_fleet=2, max_unroll=16, solver_mix="paper-default",
        cache_capacity=8, queue_capacity=256, min_fleets=1, max_fleets=2,
    )
    fields.update(overrides)
    return FleetShape(**fields)


def tiny_traffic():
    return TrafficSpec(
        name="t", mix="repeat-heavy", rate_rps=50.0, duration_s=2.0
    )


def tiny_space():
    return DesignSpace(
        shapes=(tiny_shape(), tiny_shape(max_unroll=64)),
        traffic=(tiny_traffic(),),
        sources=("2C", "Wi"),
    )


class TestConfigMapping:
    def test_shape_maps_to_acamar_config(self):
        config = acamar_config_for(tiny_shape(solver_mix="cg-first"))
        assert config.max_unroll == 16
        assert config.solver_fallback_order == (
            "cg", "bicgstab", "jacobi"
        )

    def test_base_config_overrides_survive(self):
        base = AcamarConfig(sampling_rate=32)
        config = acamar_config_for(tiny_shape(), base)
        assert config.sampling_rate == 32
        assert config.max_unroll == 16

    def test_shape_maps_to_cluster_config(self):
        config = cluster_config_for(tiny_shape())
        assert config.slots_per_fleet == 2
        assert config.initial_fleets == 1
        assert config.max_fleets == 2
        assert config.autoscale is True
        assert config.workers == 1

    def test_static_fleet_bounds_disable_autoscaling(self):
        config = cluster_config_for(
            tiny_shape(min_fleets=2, max_fleets=2)
        )
        assert config.autoscale is False


class TestEvaluatePoint:
    def test_record_carries_all_frontier_objectives(self):
        record = evaluate_point(
            tiny_shape(), tiny_traffic(), ("2C", "Wi"), seed=0
        )
        metrics = record["metrics"]
        for key in ("p99_ms", "device_seconds", "area_mm2",
                    "reconfig_rate_per_s", "gflops_per_watt",
                    "fabric_mm2_seconds", "energy_j"):
            assert key in metrics
        assert metrics["completed"] > 0
        assert metrics["gflops_per_watt"] > 0
        assert metrics["area_mm2"] > 0
        assert record["id"].endswith("@t")

    def test_same_seed_same_record(self):
        args = (tiny_shape(), tiny_traffic(), ("2C", "Wi"))
        assert evaluate_point(*args, seed=0) == evaluate_point(
            *args, seed=0
        )

    def test_seed_changes_the_workload(self):
        args = (tiny_shape(), tiny_traffic(), ("2C", "Wi"))
        first = evaluate_point(*args, seed=0)
        second = evaluate_point(*args, seed=1)
        assert first["metrics"] != second["metrics"]


class TestEvaluateItems:
    def test_bad_payload_becomes_error_record(self):
        """An item that is not a ``(shape, traffic, sources)`` point
        fails inside the per-item guard, under its own label."""
        item = WorkItem(
            index=0,
            source=(tiny_shape(), tiny_traffic()),
            seed=0,
            cost=1.0,
            label="broken",
        )
        results = evaluate_items([item], AcamarConfig())
        assert len(results) == 1
        assert results[0].entry is None
        assert "ValueError" in results[0].error
        assert results[0].label == "broken"
        assert results[0].telemetry["counters"]["dse.points_failed"] == 1

    def test_counters_track_outcomes(self):
        space = tiny_space()
        collector = Telemetry()
        run_sweep(space, seed=0, collector=collector)
        assert collector.counters["dse.points_evaluated"] == len(space)


def two_regime_space():
    return DesignSpace(
        shapes=(tiny_shape(), tiny_shape(max_unroll=64)),
        traffic=(
            tiny_traffic(),
            TrafficSpec(
                name="b", mix="bursty", rate_rps=80.0, duration_s=2.0
            ),
        ),
        sources=("2C", "Wi"),
    )


class TestTraceSharing:
    def test_sweep_generates_each_regime_trace_once(self, monkeypatch):
        calls = []
        original = evaluator.generate_trace

        def counting(spec):
            calls.append(spec.rate_rps)
            return original(spec)

        monkeypatch.setattr(evaluator, "generate_trace", counting)
        results = run_sweep(two_regime_space(), seed=0)
        assert all(r.entry is not None for r in results)
        assert sorted(calls) == [50.0, 80.0]

    def test_shared_records_equal_unshared_points(self):
        space = two_regime_space()
        shared = [r.entry for r in run_sweep(space, seed=0)]
        unshared = [
            evaluate_point(shape, traffic, space.sources, seed=0)
            for shape, traffic in space.points()
        ]
        assert shared == unshared

    def test_failed_trace_fails_only_its_regime(self, monkeypatch):
        original = evaluator.generate_trace

        def failing(spec):
            if spec.mix == "bursty":
                raise RuntimeError("trace generation failed")
            return original(spec)

        monkeypatch.setattr(evaluator, "generate_trace", failing)
        results = run_sweep(two_regime_space(), seed=0)
        failed = [r for r in results if r.entry is None]
        assert [r.label.rsplit("@", 1)[1] for r in failed] == ["b", "b"]
        assert all("RuntimeError" in r.error for r in failed)


class TestRunSweep:
    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be a non-negative integer"),
        ({"seed": 0.5}, "seed must be a non-negative integer"),
        ({"workers": 0}, "workers must be an integer >= 1"),
        ({"workers": -3}, "workers must be an integer >= 1"),
        ({"workers": 1.5}, "workers must be an integer >= 1"),
    ])
    def test_bad_seed_or_workers_raise_before_any_point(
        self, monkeypatch, kwargs, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(evaluator, "evaluate_items", never)
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(tiny_space(), **kwargs)

    def test_results_ordered_and_complete(self):
        space = tiny_space()
        results = run_sweep(space, seed=0)
        assert [r.index for r in results] == list(range(len(space)))
        assert all(r.entry is not None for r in results)

    def test_lost_worker_is_labelled_with_its_point_id(self, monkeypatch):
        """A point whose worker dies past the retry budget is reported
        under its point id, like a point that fails in its worker."""
        space = tiny_space()
        factory = ChaosExecutorFactory(
            PoolFaultSchedule(item_kills=(0, 2), item_stalls=(False, False))
        )
        real_run_sharded = evaluator.run_sharded

        def chaotic_run_sharded(items, config, workers, **kwargs):
            return real_run_sharded(
                items, config, workers, executor_factory=factory, **kwargs
            )

        monkeypatch.setattr(evaluator, "run_sharded", chaotic_run_sharded)
        results = run_sweep(space, seed=0, workers=2)
        (shape, traffic), lost_point = space.points()[1], results[1]
        assert lost_point.error.startswith("WorkerLost")
        assert lost_point.label == point_id(shape, traffic)
        assert results[0].entry is not None
        assert results[0].label == point_id(*space.points()[0])

    @pytest.mark.slow
    def test_workers_do_not_change_records(self):
        space = tiny_space()
        solo = run_sweep(space, seed=0, workers=1)
        pooled = run_sweep(space, seed=0, workers=2)
        assert [r.entry for r in solo] == [r.entry for r in pooled]
