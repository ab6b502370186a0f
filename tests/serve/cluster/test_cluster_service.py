"""End-to-end cluster simulator tests: determinism, accounting, chaos seams."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.cluster import (
    ClusterConfig,
    FleetFaultEvent,
    ForcedScaleEvent,
    run_cluster_loadtest,
)
from repro.serve.loadgen import LoadSpec

SOURCES = ("Wa", "Li", "2C")


def small_spec(**overrides):
    base = dict(
        seed=2, duration_s=6.0, rate_rps=300.0, mix="bursty",
        sources=SOURCES,
    )
    base.update(overrides)
    return LoadSpec(**base)


def small_config(**overrides):
    base = dict(
        initial_fleets=2, min_fleets=1, max_fleets=4, slots_per_fleet=2,
        max_batch=8, queue_capacity=256, cache_capacity=8,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestValidation:
    def test_fleet_bounds_ordering(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(min_fleets=4, initial_fleets=2, max_fleets=8)

    def test_min_fleets_floor(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(min_fleets=0)

    def test_fill_window_must_fit_in_epoch(self):
        with pytest.raises(ConfigurationError, match="shorter than the epoch"):
            ClusterConfig(batch_fill_ms=1000.0)
        ClusterConfig(batch_fill_ms=999.0)

    @pytest.mark.parametrize("field, value", [
        ("batch_fill_ms", math.nan),
        ("batch_fill_ms", math.inf),
        ("batch_fill_ms", -1.0),
    ])
    def test_time_knobs_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_batch", 0),
        ("max_batch", -1),
        ("max_batch", 2.5),
        ("max_batch", True),
        ("slots_per_fleet", 2.5),
        ("initial_fleets", 2.0),
        ("min_fleets", True),
        ("max_fleets", 0),
        ("gpu_tenants_per_fleet", 1.5),
        ("max_gpu_tenants", 1.5),
        ("max_gpu_tenants", -1),
        ("queue_capacity", True),
        ("cache_capacity", 0),
        ("cache_capacity", 8.0),
        ("workers", 1.5),
    ])
    def test_integer_knobs_checked_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ClusterConfig(**{field: value})

    def test_forced_scale_action_validated(self):
        with pytest.raises(ConfigurationError):
            ForcedScaleEvent(at_s=1.0, action="explode")


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        a = run_cluster_loadtest(small_spec(), small_config())
        b = run_cluster_loadtest(small_spec(), small_config())
        assert a.to_json() == b.to_json()

    def test_worker_count_never_changes_the_report(self):
        # Profile building may fan out; the served results must not
        # depend on the worker count in any byte.
        a = run_cluster_loadtest(small_spec(), small_config(workers=1))
        b = run_cluster_loadtest(small_spec(), small_config(workers=4))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = run_cluster_loadtest(small_spec(), small_config())
        b = run_cluster_loadtest(small_spec(seed=3), small_config())
        assert a.to_json() != b.to_json()


class TestAccounting:
    def test_every_request_accounted(self):
        report = run_cluster_loadtest(small_spec(), small_config())
        doc = report.as_dict()
        requests = doc["requests"]
        assert requests["unaccounted"] == 0
        assert requests["generated"] == (
            requests["completed"]
            + requests["failed"]
            + requests["shed_overflow"]
            + requests["shed_drain_limit"]
            + requests["expired"]
        )
        assert requests["generated"] > 0

    def test_accounting_holds_under_pressure(self):
        report = run_cluster_loadtest(
            small_spec(rate_rps=2000.0),
            small_config(queue_capacity=64, max_fleets=2),
        )
        doc = report.as_dict()
        assert doc["requests"]["unaccounted"] == 0
        assert doc["requests"]["shed_overflow"] > 0

    def test_cache_invariant_misses_publishes_directory(self):
        doc = run_cluster_loadtest(small_spec(), small_config()).as_dict()
        cache = doc["cache"]
        assert (
            cache["lookups"]["misses"]
            == cache["publishes"]
            == cache["directory_entries"]
        )

    def test_latency_populations_sum_to_completed(self):
        doc = run_cluster_loadtest(small_spec(), small_config()).as_dict()
        latency = doc["latency_ms"]
        assert latency["overall"]["count"] == doc["requests"]["completed"]
        assert sum(
            section["count"] for section in latency["by_priority"].values()
        ) == latency["overall"]["count"]

    def test_latencies_match_per_batch_reference(self):
        # Regression for the scatter/cumsum finalize: it must agree
        # elementwise with the naive per-batch expansion.
        from repro.config import AcamarConfig
        from repro.serve.cluster.service import _ClusterSimulation
        from repro.serve.cluster.trace import generate_trace
        from repro.serve.service import build_profiles
        from repro.telemetry import Telemetry

        spec = small_spec()
        trace = generate_trace(spec)
        collector = Telemetry()
        with collector.activate():
            profiles = build_profiles(
                list(trace.sources), AcamarConfig(), workers=1
            )
            sim = _ClusterSimulation(trace, small_config(), profiles)
            sim.run(spec.duration_s)
        c = sim.lat_count
        arrivals = sim.lat_arrival[:c].copy()  # consumed as scratch below
        got = sim.latencies_s()
        sizes = np.asarray(sim.batch_size, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        first = np.repeat(np.asarray(sim.batch_first), sizes)
        step = np.repeat(np.asarray(sim.batch_step), sizes)
        position = np.arange(c, dtype=np.float64) - np.repeat(
            starts.astype(np.float64), sizes
        )
        reference = (first - arrivals) + step * position
        assert np.abs(got - reference).max() < 1e-9
        assert np.all(got > 0.0)


class TestRoutingAffinity:
    def test_affinity_beats_random_spread_on_config_loads(self):
        warm = run_cluster_loadtest(
            small_spec(mix="repeat-heavy"), small_config()
        ).as_dict()
        cold = run_cluster_loadtest(
            small_spec(mix="repeat-heavy"),
            small_config(affinity_routing=False),
        ).as_dict()
        assert warm["routing"]["affinity"] is True
        assert cold["routing"]["affinity"] is False
        # Spraying fingerprints across fleets multiplies remote
        # installs; affinity keeps each structure's plan resident.
        assert (
            warm["cache"]["lookups"]["remote_hits"]
            <= cold["cache"]["lookups"]["remote_hits"]
        )
        assert (
            warm["cache"]["lookups"]["local_hit_rate"]
            >= cold["cache"]["lookups"]["local_hit_rate"]
        )

    def test_all_routed_requests_counted(self):
        doc = run_cluster_loadtest(small_spec(), small_config()).as_dict()
        assert doc["routing"]["routed"] > 0
        assert doc["routing"]["ring_rebuilds"] >= 1  # initial joins


class TestRemapCount:
    """``remapped`` counts owner changes once the initial fleets are in.

    Each initial fleet rebuilds the routes as it joins at t=0, before
    any request is routed, so those owner changes are not remaps.  The
    25 default sources spread over every fleet of these rings.
    """

    @staticmethod
    def routing(initial_fleets, forced_scale=()):
        doc = run_cluster_loadtest(
            LoadSpec(duration_s=0.5, rate_rps=2.0),
            ClusterConfig(
                initial_fleets=initial_fleets,
                autoscale=False,
                forced_scale=forced_scale,
            ),
        ).as_dict()
        assert doc["counters"]["router.remapped"] == (
            doc["routing"]["remapped"]
        )
        return doc["routing"]

    @pytest.mark.parametrize("fleets", [1, 2, 3])
    def test_initial_fleets_remap_nothing(self, fleets):
        routing = self.routing(fleets)
        assert routing["remapped"] == 0
        assert routing["ring_rebuilds"] == fleets

    @pytest.mark.parametrize("fleets, action", [(2, "add"), (3, "drain")])
    def test_forced_scale_still_counts(self, fleets, action):
        routing = self.routing(
            fleets, (ForcedScaleEvent(at_s=0.25, action=action),)
        )
        assert routing["remapped"] > 0
        assert routing["ring_rebuilds"] == fleets + 1


class TestAutoscaling:
    def test_pressure_scales_the_cluster_up(self):
        doc = run_cluster_loadtest(
            small_spec(duration_s=12.0, rate_rps=1500.0),
            small_config(initial_fleets=1, max_fleets=4),
        ).as_dict()
        assert doc["autoscaler"]["enabled"] is True
        assert doc["autoscaler"]["scale_ups"] >= 1
        assert doc["fleets"]["peak"] > 1

    def test_autoscale_off_keeps_membership_fixed(self):
        doc = run_cluster_loadtest(
            small_spec(rate_rps=1500.0),
            small_config(autoscale=False),
        ).as_dict()
        assert doc["autoscaler"]["enabled"] is False
        assert doc["autoscaler"]["evaluations"] == 0
        assert doc["fleets"]["peak"] == 2
        assert doc["fleets"]["final"] == 2

    def test_decisions_respect_cooldown_spacing(self):
        report = run_cluster_loadtest(
            small_spec(duration_s=20.0, rate_rps=1200.0),
            small_config(initial_fleets=1),
        )
        from repro.serve.cluster import ScaleAction

        decisions = report.autoscaler.decisions
        fired = [
            i for i, d in enumerate(decisions)
            if d.action is not ScaleAction.HOLD
        ]
        cooldown = report.autoscaler.policy.cooldown_intervals
        for a, b in zip(fired, fired[1:]):
            assert b - a >= cooldown + 1


class TestChaosSeams:
    def test_forced_drain_retires_a_fleet(self):
        doc = run_cluster_loadtest(
            small_spec(),
            small_config(
                autoscale=False,
                forced_scale=(ForcedScaleEvent(at_s=2.0, action="drain"),),
            ),
        ).as_dict()
        assert doc["fleets"]["final"] == 1
        retired = [
            f for f in doc["fleets"]["members"]
            if f["retired_s"] is not None
        ]
        assert len(retired) == 1
        assert retired[0]["drained_s"] is not None
        assert retired[0]["retired_s"] >= retired[0]["drained_s"]
        assert doc["counters"]["faults.injected.forced_scale"] == 1

    def test_forced_drain_refused_at_min_fleets(self):
        doc = run_cluster_loadtest(
            small_spec(),
            small_config(
                initial_fleets=1, autoscale=False,
                forced_scale=(ForcedScaleEvent(at_s=2.0, action="drain"),),
            ),
        ).as_dict()
        assert doc["fleets"]["final"] == 1
        assert doc["counters"].get("faults.injected.forced_scale", 0) == 0

    def test_fleet_fault_applies_and_recovers(self):
        doc = run_cluster_loadtest(
            small_spec(duration_s=8.0),
            small_config(
                autoscale=False,
                fleet_faults=(
                    FleetFaultEvent(at_s=2.0, fleet_ordinal=0, outage_s=1.5),
                ),
            ),
        ).as_dict()
        assert doc["counters"]["faults.injected.fleet_outage"] == 1
        outages = [f["outages"] for f in doc["fleets"]["members"]]
        assert sum(outages) == 1
        # Recovery rejoins the ring: both fleets end the run alive.
        assert doc["fleets"]["final"] == 2
        assert doc["requests"]["unaccounted"] == 0

    def test_chaos_runs_stay_byte_identical(self):
        config = small_config(
            fleet_faults=(
                FleetFaultEvent(at_s=1.5, fleet_ordinal=1, outage_s=1.0),
            ),
            forced_scale=(
                ForcedScaleEvent(at_s=2.5, action="add"),
                ForcedScaleEvent(at_s=4.0, action="drain"),
            ),
        )
        a = run_cluster_loadtest(small_spec(), config)
        b = run_cluster_loadtest(small_spec(), config)
        assert a.to_json() == b.to_json()


class TestReport:
    def test_document_is_cached(self):
        report = run_cluster_loadtest(small_spec(), small_config())
        assert report.as_dict() is report.as_dict()

    def test_json_round_trip(self, tmp_path):
        import json

        report = run_cluster_loadtest(small_spec(), small_config())
        path = report.write_json(tmp_path / "cluster.json")
        assert json.loads(path.read_text()) == report.as_dict()

    def test_summary_lines_render(self):
        report = run_cluster_loadtest(small_spec(), small_config())
        text = "\n".join(report.summary_lines())
        assert "requests generated" in text
        assert "fleets peak / final" in text
