"""Cluster chaos profile: schedule shape, invariants, determinism."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import run_chaos
from repro.faults.injectors import chaos_cluster_config
from repro.faults.plan import FaultPlan
from repro.faults.runner import run_cluster_profile
from repro.serve.cluster import FleetFaultEvent, ForcedScaleEvent


class TestClusterSchedule:
    def test_schedule_shape(self):
        schedule = FaultPlan(3).cluster_schedule(duration_s=8.0)
        assert 1400.0 <= schedule.rate_rps <= 2000.0
        assert 0.0 < schedule.mid_drain_at_s < 8.0
        assert len(schedule.fleet_faults) >= 2
        for fault in schedule.fleet_faults:
            assert isinstance(fault, FleetFaultEvent)
            assert 0.0 < fault.at_s < 8.0
            assert fault.outage_s > 0.0
        actions = [e.action for e in schedule.forced_scale]
        assert "add" in actions and "drain" in actions

    def test_one_outage_lands_after_the_mid_drain(self):
        schedule = FaultPlan(3).cluster_schedule(duration_s=8.0)
        assert any(
            fault.at_s > schedule.mid_drain_at_s
            for fault in schedule.fleet_faults
        )

    def test_schedule_deterministic_per_seed(self):
        a = FaultPlan(5).cluster_schedule(duration_s=8.0)
        b = FaultPlan(5).cluster_schedule(duration_s=8.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultPlan(5).cluster_schedule(duration_s=8.0)
        b = FaultPlan(6).cluster_schedule(duration_s=8.0)
        assert a != b

    def test_duration_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(0).cluster_schedule(duration_s=0.0)


class TestChaosClusterConfig:
    def test_config_carries_the_schedule(self):
        schedule = FaultPlan(1).cluster_schedule(duration_s=8.0)
        config = chaos_cluster_config(schedule)
        assert config.fleet_faults == schedule.fleet_faults
        assert config.forced_scale == schedule.forced_scale
        # Tight capacities on purpose: pressure and evictions must be
        # real for the audits to mean anything.
        assert config.cache_capacity <= 8
        assert config.queue_capacity <= 1024

    def test_events_are_simulator_types(self):
        schedule = FaultPlan(1).cluster_schedule(duration_s=8.0)
        config = chaos_cluster_config(schedule)
        assert all(
            isinstance(e, FleetFaultEvent) for e in config.fleet_faults
        )
        assert all(
            isinstance(e, ForcedScaleEvent) for e in config.forced_scale
        )


class TestClusterProfile:
    def test_invariants_hold_and_faults_land(self):
        outcome = run_cluster_profile(FaultPlan(7))
        assert outcome.clean, [f.render() for f in outcome.findings]
        assert outcome.observed["fleets"]["outages"] >= 1
        assert outcome.injected["faults.injected.forced_scale"] >= 1
        assert outcome.observed["requests"]["unaccounted"] == 0
        assert outcome.observed["requests"]["shed_overflow"] > 0

    def test_detects_outages_that_never_land(self, monkeypatch):
        from repro.serve.cluster.service import _ClusterSimulation

        monkeypatch.setattr(
            _ClusterSimulation, "_apply_fault", lambda self, event: None
        )
        outcome = run_cluster_profile(FaultPlan(7))
        assert outcome.observed["fleets"]["outages"] == 0
        assert "CHS-CLUSTER-INJECT" in [f.check for f in outcome.findings]

    def test_detects_a_miss_missing_from_the_directory(self, monkeypatch):
        from repro.serve.cluster.cache import TieredPlanCache

        real_publish = TieredPlanCache.publish
        dropped = []

        def forgetful_publish(self, fleet_id, fingerprint):
            if not dropped:  # the first miss never reaches the directory
                dropped.append(fingerprint)
                return
            real_publish(self, fleet_id, fingerprint)

        monkeypatch.setattr(TieredPlanCache, "publish", forgetful_publish)
        outcome = run_cluster_profile(FaultPlan(7))
        assert dropped
        assert [f.check for f in outcome.findings] == ["CHS-CLUSTER-CACHE"]

    def test_profile_deterministic(self):
        a = run_cluster_profile(FaultPlan(7))
        b = run_cluster_profile(FaultPlan(7))
        assert a.as_dict() == b.as_dict()

    def test_run_chaos_cluster_subset_byte_identical(self):
        a = run_chaos(7, profiles=("cluster",))
        b = run_chaos(7, profiles=("cluster",))
        assert a.to_json() == b.to_json()
        assert a.clean
