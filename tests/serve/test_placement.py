"""Placement-parity suite: the mixed-fleet backend must be invisible
when disabled and byte-deterministic when enabled.

Three contracts, each pinned hard:

1. **Forced single-backend = pre-PR behavior.**  With ``gpu_tenants=0``
   and ``cpu_assist=False`` the serving and cluster reports reproduce
   the exact pre-placement numbers (golds below) and carry *no*
   placement/GPU keys — schema parity, not just value parity.
2. **Byte determinism.**  A mixed FPGA+GPU run serializes to the same
   bytes on every run and for every ``workers`` value.
3. **Class-scoped faults.**  A GPU-tenant fault can never evict an
   FPGA plan (satellite 3), and fault application is idempotent.
"""

import json

import pytest

from repro.fpga import FleetSpec
from repro.placement import FPGA, GPU, STRUCTURAL_CLASSES
from repro.serve import (
    LoadSpec,
    ServiceConfig,
    generate_requests,
    run_cluster_loadtest,
    run_service,
)
from repro.serve.cluster.service import ClusterConfig
from repro.serve.scheduler import DeviceFaultEvent, MicroBatchScheduler

# LoadSpec(seed=7, 2 s, 120 rps) on a pure-FPGA 1x3 fleet.  The
# placement backend, disabled, must not move any of them.
SERVE_GOLD = {
    "completed": 235,
    "p50_ms": 3.825369,
    "p99_ms": 9.27491,
    "batches": 225,
    "config_loads": 114,
    "device_seconds": 0.746374355,
    "hit_rate": 0.89787234,
}

# Pre-PR pinned numbers: LoadSpec(seed=3, 12 s, 400 rps,
# repeat-heavy) on 2..4 fleets of 3 FPGA slots.
CLUSTER_GOLD = {
    "completed": 4858,
    "p50_ms": 36.845326,
    "p99_ms": 60.83524,
    "batches": 1782,
    "config_loads": 1480,
    "device_seconds": 11.020792008,
    "peak": 2,
}

MIXED_FLEET = FleetSpec(
    slots_per_device=2, gpu_tenants=2, cpu_assist=True
)


def _serve_report(fleet: FleetSpec, workers: int = 1):
    requests = generate_requests(
        LoadSpec(seed=7, duration_s=2.0, rate_rps=120.0)
    )
    return run_service(
        requests, ServiceConfig(fleet=fleet, workers=workers)
    )


def _cluster_report(config: ClusterConfig):
    spec = LoadSpec(
        seed=3, duration_s=12.0, rate_rps=400.0, mix="repeat-heavy"
    )
    return run_cluster_loadtest(spec, config)


class TestForcedSingleBackend:
    """gpu_tenants=0 must reproduce the pre-PR reports exactly."""

    def test_serve_gold_values(self):
        doc = _serve_report(FleetSpec(slots_per_device=3)).as_dict()
        assert doc["requests"]["completed"] == SERVE_GOLD["completed"]
        assert doc["latency_ms"]["overall"]["p50"] == SERVE_GOLD["p50_ms"]
        assert doc["latency_ms"]["overall"]["p99"] == SERVE_GOLD["p99_ms"]
        assert doc["batches"]["count"] == SERVE_GOLD["batches"]
        assert doc["batches"]["config_loads"] == SERVE_GOLD["config_loads"]
        assert doc["fleet"]["device_seconds"] == SERVE_GOLD["device_seconds"]
        assert doc["cache"]["hit_rate"] == SERVE_GOLD["hit_rate"]

    def test_serve_schema_parity(self):
        doc = _serve_report(FleetSpec(slots_per_device=3)).as_dict()
        assert "placement" not in doc
        assert "gpu_tenants" not in doc["serving"]["fleet"]
        assert "cpu_assist" not in doc["serving"]["fleet"]
        text = json.dumps(doc)
        assert "gpu_batches" not in text
        assert "cpu_assist" not in text

    def test_cluster_gold_values(self):
        doc = _cluster_report(
            ClusterConfig(
                initial_fleets=2, min_fleets=1, max_fleets=4,
                slots_per_fleet=3,
            )
        ).as_dict()
        assert doc["requests"]["completed"] == CLUSTER_GOLD["completed"]
        assert doc["latency_ms"]["overall"]["p50"] == CLUSTER_GOLD["p50_ms"]
        assert doc["latency_ms"]["overall"]["p99"] == CLUSTER_GOLD["p99_ms"]
        assert doc["batches"]["count"] == CLUSTER_GOLD["batches"]
        assert doc["batches"]["config_loads"] == CLUSTER_GOLD["config_loads"]
        assert doc["fleets"]["device_seconds"] == CLUSTER_GOLD["device_seconds"]
        assert doc["fleets"]["peak"] == CLUSTER_GOLD["peak"]

    def test_cluster_schema_parity(self):
        doc = _cluster_report(
            ClusterConfig(
                initial_fleets=2, min_fleets=1, max_fleets=4,
                slots_per_fleet=3,
            )
        ).as_dict()
        assert "placement" not in doc
        text = json.dumps(doc)
        assert "gpu_tenants" not in text
        assert "gpu_batches" not in text
        assert "cpu_assist" not in text


class TestByteDeterminism:
    def test_mixed_serve_identical_across_runs(self):
        first = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        second = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        assert first == second

    @pytest.mark.parametrize("workers", [2, 3])
    def test_mixed_serve_identical_across_workers(self, workers):
        base = json.dumps(_serve_report(MIXED_FLEET).as_dict(), sort_keys=True)
        sharded = json.dumps(
            _serve_report(MIXED_FLEET, workers=workers).as_dict(),
            sort_keys=True,
        )
        assert base == sharded

    def test_mixed_cluster_identical_across_workers(self):
        config = dict(
            initial_fleets=2, min_fleets=1, max_fleets=4,
            slots_per_fleet=2, gpu_tenants_per_fleet=2,
            max_gpu_tenants=3, cpu_assist=True,
        )
        base = json.dumps(
            _cluster_report(ClusterConfig(**config)).as_dict(), sort_keys=True
        )
        sharded = json.dumps(
            _cluster_report(ClusterConfig(**config, workers=2)).as_dict(),
            sort_keys=True,
        )
        assert base == sharded


class TestMixedFleetDecisions:
    def test_placement_section_is_complete_and_valid(self):
        doc = _serve_report(MIXED_FLEET).as_dict()
        section = doc["placement"]
        decisions = section["sources"].values()
        assert decisions, "mixed run profiled no sources"
        for decision in decisions:
            assert decision["device_class"] in (FPGA, GPU)
            assert decision["structural_class"] in STRUCTURAL_CLASSES
            assert not decision["forced"]
            assert decision["fpga_batch_s"] > 0.0
            assert decision["gpu_batch_s"] > 0.0
        assert section["by_class"][FPGA] + section["by_class"][GPU] == len(
            section["sources"]
        )
        matrix_total = sum(
            count
            for row in section["scenario_matrix"].values()
            for count in row.values()
        )
        assert matrix_total == len(section["sources"])

    def test_both_classes_win_somewhere(self):
        # The decision layer is only earning its keep if the traffic
        # splits; the seed-7 registry mix does split.
        by_class = _serve_report(MIXED_FLEET).as_dict()["placement"]["by_class"]
        assert by_class[FPGA] > 0
        assert by_class[GPU] > 0

    def test_single_backend_decisions_are_forced(self):
        doc = _serve_report(
            FleetSpec(slots_per_device=0, gpu_tenants=2)
        ).as_dict()
        for decision in doc["placement"]["sources"].values():
            assert decision["device_class"] == GPU
            assert decision["forced"]


class TestClassScopedFaults:
    """Satellite 3: fault isolation between co-scheduled device classes."""

    def _scheduler(self, faults):
        return MicroBatchScheduler(
            fleet=MIXED_FLEET, profiles={}, device_faults=faults
        )

    def test_gpu_fault_cannot_evict_fpga_plan(self):
        scheduler = self._scheduler(
            (DeviceFaultEvent(at_s=1.0, slot=0, outage_s=0.5,
                              device_class=GPU),)
        )
        fpga_slots = [s for s in scheduler.slots if s.device_class == FPGA]
        gpu_slots = [s for s in scheduler.slots if s.device_class == GPU]
        for slot in scheduler.slots:
            slot.resident_signature = f"plan-{slot.index}"
        scheduler.apply_device_faults(now=2.0)
        assert all(s.resident_signature for s in fpga_slots)
        assert all(s.outages == 0 for s in fpga_slots)
        assert gpu_slots[0].resident_signature is None
        assert gpu_slots[0].outages == 1
        assert gpu_slots[1].resident_signature is not None

    def test_fpga_fault_cannot_evict_gpu_plan(self):
        scheduler = self._scheduler(
            (DeviceFaultEvent(at_s=1.0, slot=1, outage_s=0.5,
                              device_class=FPGA),)
        )
        for slot in scheduler.slots:
            slot.resident_signature = f"plan-{slot.index}"
        scheduler.apply_device_faults(now=2.0)
        gpu_slots = [s for s in scheduler.slots if s.device_class == GPU]
        assert all(s.resident_signature for s in gpu_slots)
        assert all(s.outages == 0 for s in gpu_slots)
        fpga_hit = [s for s in scheduler.slots if s.device_class == FPGA][1]
        assert fpga_hit.resident_signature is None
        assert fpga_hit.outages == 1

    def test_fault_application_is_idempotent(self):
        scheduler = self._scheduler(
            (DeviceFaultEvent(at_s=1.0, slot=0, outage_s=0.5,
                              device_class=GPU),)
        )
        scheduler.apply_device_faults(now=2.0)
        gpu_slot = [s for s in scheduler.slots if s.device_class == GPU][0]
        gpu_slot.resident_signature = "reloaded"
        scheduler.apply_device_faults(now=3.0)
        scheduler.apply_device_faults(now=4.0)
        assert gpu_slot.outages == 1
        assert gpu_slot.resident_signature == "reloaded"

    def test_fault_for_absent_class_is_consumed_without_effect(self):
        scheduler = MicroBatchScheduler(
            fleet=FleetSpec(slots_per_device=2),
            profiles={},
            device_faults=(
                DeviceFaultEvent(at_s=1.0, slot=0, outage_s=0.5,
                                 device_class=GPU),
            ),
        )
        for slot in scheduler.slots:
            slot.resident_signature = "plan"
        scheduler.apply_device_faults(now=2.0)
        assert all(s.resident_signature == "plan" for s in scheduler.slots)
        assert all(s.outages == 0 for s in scheduler.slots)
