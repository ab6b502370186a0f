"""Tests for micro-batch formation, placement and cost charging."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.fpga.multitenancy import FleetSpec
from repro.serve.admission import QueuedRequest
from repro.serve.api import Outcome, Priority, SolveRequest
from repro.serve.cache import PlanCache
from repro.serve.profile import (
    BATCH_MEMBER_DISPATCH_SECONDS,
    DISPATCH_OVERHEAD_SECONDS,
    SolveProfile,
)
from repro.serve.scheduler import MicroBatchScheduler

SWAP_S = 5e-3


def profile(label, fingerprint, signature, final=1e-4):
    return SolveProfile(
        label=label,
        fingerprint=fingerprint,
        plan_signature=signature,
        n=100,
        nnz=500,
        converged=True,
        solver_sequence=("cg",),
        iterations=10,
        attempt_compute_s=(2e-4, final),
        solver_swap_s=SWAP_S,
        analysis_s=1e-3,
    )


PROFILES = {
    "A": profile("A", "fp-a", "sig-shared"),
    "B": profile("B", "fp-b", "sig-shared"),
    "C": profile("C", "fp-c", "sig-other"),
    "bad": "ValueError: no good",
}


def queued(rid, source, priority=Priority.BATCH, arrival=0.0, admitted=0.0):
    return QueuedRequest(
        request=SolveRequest(
            request_id=rid,
            source=source,
            arrival_s=arrival,
            priority=priority,
        ),
        admitted_s=admitted,
    )


def make_scheduler(cache=None, slots=2, max_batch=4, window=1e-3):
    return MicroBatchScheduler(
        fleet=FleetSpec(devices=1, slots_per_device=slots),
        profiles=dict(PROFILES),
        cache=cache,
        max_batch=max_batch,
        batch_window_s=window,
    )


class TestValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            make_scheduler(max_batch=0)
        # A NaN window never ripens: a lone batch request would wait
        # forever.
        for window in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="batch window"):
                make_scheduler(window=window)


class TestGrouping:
    def test_same_fingerprint_one_batch(self):
        scheduler = make_scheduler()
        queue = [queued(0, "A"), queued(1, "A"), queued(2, "C")]
        responses, remaining, _ = scheduler.dispatch(queue, now=0.01, next_batch_id=0)
        assert remaining == []
        batches = {r.request_id: r.batch_id for r in responses}
        assert batches[0] == batches[1]
        assert batches[2] != batches[0]

    def test_failed_profile_isolated_and_reported(self):
        scheduler = make_scheduler()
        queue = [queued(0, "A"), queued(1, "bad")]
        responses, remaining, _ = scheduler.dispatch(queue, now=0.01, next_batch_id=0)
        assert remaining == []
        by_id = {r.request_id: r for r in responses}
        assert by_id[0].outcome is Outcome.COMPLETED
        assert by_id[1].outcome is Outcome.FAILED
        assert "ValueError" in by_id[1].detail

    def test_max_batch_splits_group(self):
        scheduler = make_scheduler(max_batch=2)
        queue = [queued(i, "A") for i in range(3)]
        responses, remaining, _ = scheduler.dispatch(queue, now=0.01, next_batch_id=0)
        sizes = sorted(b.size for b in scheduler.batches)
        assert sizes == [1, 2]
        assert remaining == []

    def test_batch_window_holds_back_small_batch_groups(self):
        scheduler = make_scheduler(window=5e-3)
        queue = [queued(0, "A", admitted=0.0)]
        _, remaining, _ = scheduler.dispatch(queue, now=1e-3, next_batch_id=0)
        assert len(remaining) == 1  # not ripe yet
        responses, remaining, _ = scheduler.dispatch(
            remaining, now=6e-3, next_batch_id=0
        )
        assert remaining == []
        assert responses[0].outcome is Outcome.COMPLETED

    def test_interactive_head_dispatches_immediately(self):
        scheduler = make_scheduler(window=5e-3)
        queue = [queued(0, "A", priority=Priority.INTERACTIVE, admitted=0.0)]
        responses, remaining, _ = scheduler.dispatch(
            queue, now=1e-4, next_batch_id=0
        )
        assert remaining == []
        assert responses


class TestCostCharging:
    def test_cold_batch_head_pays_full_later_members_amortize(self):
        cache = PlanCache(capacity=8)
        scheduler = make_scheduler(cache=cache)
        prof = PROFILES["A"]
        queue = [queued(0, "A"), queued(1, "A")]
        responses, _, _ = scheduler.dispatch(queue, now=0.01, next_batch_id=0)
        by_id = {r.request_id: r for r in responses}
        assert by_id[0].service_s == pytest.approx(
            DISPATCH_OVERHEAD_SECONDS + prof.cold_service_s
        )
        # Later members of a fingerprint micro-batch reuse the head's
        # descriptor and lookup: amortized dispatch, warm device time.
        assert by_id[1].service_s == pytest.approx(
            BATCH_MEMBER_DISPATCH_SECONDS + prof.warm_service_s
        )
        # Amortized members of a cold batch are still cache *misses*.
        assert not by_id[0].cache_hit
        assert not by_id[1].cache_hit

    def test_first_lookup_on_empty_cache_counts_a_miss(self):
        cache = PlanCache(capacity=8)
        scheduler = make_scheduler(cache=cache)
        scheduler.dispatch(
            [queued(0, "A"), queued(1, "A")], now=0.01, next_batch_id=0
        )
        # One cold batch makes one lookup, even on a still-empty cache.
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_warm_batch_members_are_cache_hits(self):
        cache = PlanCache(capacity=8)
        scheduler = make_scheduler(cache=cache)
        scheduler.dispatch([queued(0, "A")], now=0.01, next_batch_id=0)
        responses, _, _ = scheduler.dispatch(
            [queued(1, "A", arrival=0.1, admitted=0.1)],
            now=0.11,
            next_batch_id=1,
        )
        assert responses[0].cache_hit
        assert responses[0].service_s == pytest.approx(
            DISPATCH_OVERHEAD_SECONDS + PROFILES["A"].warm_service_s
        )

    def test_no_cache_reloads_configuration_every_batch(self):
        scheduler = make_scheduler(cache=None, slots=1)
        first, _, _ = scheduler.dispatch(
            [queued(0, "A")], now=0.01, next_batch_id=0
        )
        second, _, _ = scheduler.dispatch(
            [queued(1, "A", arrival=0.1, admitted=0.1)],
            now=0.2,
            next_batch_id=1,
        )
        assert scheduler.slots[0].config_loads == 2
        assert all(not r.cache_hit for r in first + second)

    def test_affinity_skips_configuration_load_on_resident_slot(self):
        cache = PlanCache(capacity=8)
        scheduler = make_scheduler(cache=cache, slots=2)
        scheduler.dispatch([queued(0, "A")], now=0.01, next_batch_id=0)
        # Same plan signature, different fingerprint: slot 0 is resident.
        scheduler.dispatch(
            [queued(1, "B", arrival=0.1, admitted=0.1)],
            now=0.2,
            next_batch_id=1,
        )
        loads = sorted(s.config_loads for s in scheduler.slots)
        assert loads == [0, 1]  # second batch reused the configured slot

    def test_tenancy_bounds_concurrency(self):
        scheduler = make_scheduler(slots=1)
        queue = [queued(0, "A"), queued(1, "C")]
        responses, remaining, _ = scheduler.dispatch(
            queue, now=0.01, next_batch_id=0
        )
        # One slot: the incompatible second group must wait.
        assert len(responses) == 1
        assert len(remaining) == 1
        # The slot is still busy at 0.01: the ripe group waits again.
        again, still, _ = scheduler.dispatch(
            remaining, now=0.01, next_batch_id=1
        )
        assert again == []
        assert still == remaining


class TestGroupKeyMemo:
    """Memoized group keys must follow the cache, and slots the plan."""

    def test_cached_fingerprints_merge_on_their_plan_signature(self):
        # A and B share a plan signature under different fingerprints.
        # Each first runs alone and cold, so its key is first computed
        # uncached; once both are cached they form one batch, which a
        # key memoized before the ``put`` would keep apart.
        scheduler = make_scheduler(cache=PlanCache(capacity=8))
        scheduler.dispatch([queued(0, "A")], now=0.01, next_batch_id=0)
        scheduler.dispatch(
            [queued(1, "B", arrival=0.1, admitted=0.1)],
            now=0.11,
            next_batch_id=1,
        )
        responses, remaining, _ = scheduler.dispatch(
            [
                queued(2, "A", arrival=0.2, admitted=0.2),
                queued(3, "B", arrival=0.2, admitted=0.2),
            ],
            now=0.21,
            next_batch_id=2,
        )
        assert remaining == []
        assert {r.batch_id for r in responses} == {2}
        assert all(r.cache_hit for r in responses)

    def test_without_cache_fingerprints_never_merge(self):
        scheduler = make_scheduler(cache=None)
        scheduler.dispatch([queued(0, "A")], now=0.01, next_batch_id=0)
        responses, _, _ = scheduler.dispatch(
            [
                queued(1, "A", arrival=0.2, admitted=0.2),
                queued(2, "B", arrival=0.2, admitted=0.2),
            ],
            now=0.21,
            next_batch_id=1,
        )
        assert sorted(r.batch_id for r in responses) == [1, 2]

    def test_affinity_prefers_a_resident_slot_over_a_lower_index(self):
        cache = PlanCache(capacity=8)
        scheduler = make_scheduler(cache=cache, slots=2)
        # A lands on slot 0 and C on slot 1 in the same tick.
        first, _, _ = scheduler.dispatch(
            [queued(0, "A"), queued(1, "C")], now=0.01, next_batch_id=0
        )
        assert {r.source: r.instance for r in first} == {"A": 0, "C": 1}
        loads = [s.config_loads for s in scheduler.slots]
        # Both slots are free again; C's plan is resident on slot 1.
        again, _, _ = scheduler.dispatch(
            [queued(2, "C", arrival=0.2, admitted=0.2)],
            now=0.3,
            next_batch_id=2,
        )
        assert again[0].instance == 1
        assert [s.config_loads for s in scheduler.slots] == loads


class TestDeviceFaults:
    """Modeled device outages through the scheduler's fault seam."""

    def make_faulty(self, faults, slots=1, cache=None):
        from repro.serve.scheduler import DeviceFaultEvent

        events = tuple(DeviceFaultEvent(*f) for f in faults)
        return MicroBatchScheduler(
            fleet=FleetSpec(devices=1, slots_per_device=slots),
            profiles=dict(PROFILES),
            cache=cache,
            max_batch=4,
            batch_window_s=1e-3,
            device_faults=events,
        )

    def test_outage_delays_placement_until_slot_recovers(self):
        # (at_s, slot, outage_s): slot 0 is down for [0, 0.1).
        scheduler = self.make_faulty([(0.0, 0, 0.1)])
        queue = [queued(0, "A")]
        responses, queue, _ = scheduler.dispatch(queue, now=0.05, next_batch_id=0)
        assert responses == []
        assert len(queue) == 1
        assert scheduler.slots[0].outages == 1
        responses, queue, _ = scheduler.dispatch(queue, now=0.2, next_batch_id=0)
        assert len(responses) == 1
        assert responses[0].outcome is Outcome.COMPLETED
        assert queue == []

    def test_outage_evicts_resident_configuration(self):
        scheduler = self.make_faulty(
            [(0.5, 0, 0.01)], cache=PlanCache(capacity=8)
        )
        queue = [queued(0, "A")]
        _, queue, _ = scheduler.dispatch(queue, now=0.01, next_batch_id=0)
        assert scheduler.slots[0].resident_signature is not None
        scheduler.apply_device_faults(now=0.5)
        assert scheduler.slots[0].resident_signature is None

    def test_faults_apply_once_and_in_order(self):
        from repro.telemetry import Telemetry

        scheduler = self.make_faulty([(0.2, 0, 0.01), (0.1, 0, 0.01)])
        # __post_init__ sorts by time regardless of construction order.
        assert [e.at_s for e in scheduler.device_faults] == [0.1, 0.2]
        collector = Telemetry()
        with collector.activate():
            scheduler.apply_device_faults(now=0.15)  # only the first is due
            assert scheduler.slots[0].outages == 1
            scheduler.apply_device_faults(now=0.15)  # idempotent
            assert scheduler.slots[0].outages == 1
            scheduler.apply_device_faults(now=1.0)
            assert scheduler.slots[0].outages == 2
        assert collector.counters["serve.device_faults"] == 2

    def test_negative_outage_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_faulty([(0.0, 0, -1.0)])

    @pytest.mark.parametrize("fault, field", [
        ((0.0, 0.5, 0.1), "slot"),
        ((0.0, True, 0.1), "slot"),
        ((math.nan, 0, 0.1), "at_s"),
        ((math.inf, 0, 0.1), "at_s"),
        ((True, 0, 0.1), "at_s"),
        ((0.0, 0, math.nan), "outage_s"),
        ((0.0, 0, math.inf), "outage_s"),
        ((0.0, 0, -1e-9), "outage_s"),
        ((0.0, 0, 0.1, "tpu"), "device_class"),
    ])
    def test_bad_event_rejected_at_construction(self, fault, field):
        from repro.serve.scheduler import DeviceFaultEvent

        with pytest.raises(ConfigurationError, match=f"device-fault {field} "):
            DeviceFaultEvent(*fault)

    def test_valid_events_construct(self):
        from repro.serve.scheduler import DeviceFaultEvent

        DeviceFaultEvent(-1.0, -3, 0.0)
        DeviceFaultEvent(0.5, 2, 0.25, "gpu")
