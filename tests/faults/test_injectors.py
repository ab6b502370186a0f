"""Tests for the fault injectors (the seam adapters)."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.datasets import poisson_2d
from repro.faults.injectors import (
    ChaosExecutorFactory,
    ForcedDivergenceHook,
    chaos_service_config,
    storm_requests,
)
from repro.faults.plan import FaultPlan, PoolFaultSchedule
from repro.parallel import WorkItem
from repro.solvers.base import SolveStatus
from repro.telemetry import Telemetry


def items(n):
    return [
        WorkItem(index=i, source=f"s{i}", seed=i, cost=1.0, label=f"s{i}")
        for i in range(n)
    ]


def echo(chunk, config):
    return [it.index for it in chunk]


class TestChaosExecutor:
    def test_marked_chunk_breaks_and_consumes_budget(self):
        schedule = PoolFaultSchedule(
            item_kills=(1, 0, 2), item_stalls=(False, False, False)
        )
        factory = ChaosExecutorFactory(schedule)
        executor = factory(2)
        collector = Telemetry()
        with collector.activate():
            future = executor.submit(echo, items(3), None)
            with pytest.raises(BrokenProcessPool):
                future.result()
            # One death consumed from each marked member of the chunk.
            assert executor.kills_remaining == {0: 0, 2: 1}
            # Innocent singleton now completes; item 2 still breaks once.
            assert executor.submit(echo, items(3)[:2], None).result() == [0, 1]
            with pytest.raises(BrokenProcessPool):
                executor.submit(echo, [items(3)[2]], None).result()
            assert executor.submit(echo, [items(3)[2]], None).result() == [2]
        assert collector.counters["faults.injected.worker_death"] == 3

    def test_stalls_counted_but_harmless(self):
        schedule = PoolFaultSchedule(
            item_kills=(0, 0), item_stalls=(True, False)
        )
        factory = ChaosExecutorFactory(schedule)
        executor = factory(2)
        collector = Telemetry()
        with collector.activate():
            assert executor.submit(echo, items(2), None).result() == [0, 1]
        assert collector.counters["faults.injected.worker_stall"] == 1

    def test_factory_counts_pools_and_shares_budgets(self):
        schedule = PoolFaultSchedule(
            item_kills=(2, 0), item_stalls=(False, False)
        )
        factory = ChaosExecutorFactory(schedule)
        first, second = factory(2), factory(2)
        assert factory.pools_created == 2
        # The budget belongs to the item, not the pool.
        assert first.kills_remaining is second.kills_remaining


class TestForcedDivergenceHook:
    def converged_result(self):
        problem = poisson_2d(8)
        from repro import Acamar

        return Acamar().solve(problem.matrix, problem.b).final

    def test_replaces_status_within_budget(self):
        hook = ForcedDivergenceHook(budget=2, stall_attempts=frozenset({1}))
        real = self.converged_result()
        collector = Telemetry()
        with collector.activate():
            forced = hook("cg", 0, real)
            assert forced is not None
            assert forced.status is SolveStatus.DIVERGED
            assert forced is not real
            forced = hook("bicgstab", 1, real)
            assert forced.status is SolveStatus.DIVERGED
            assert hook("jacobi", 2, real) is None
        assert hook.forced == ["cg", "bicgstab"]
        assert collector.counters["faults.injected.divergence"] == 2
        assert collector.counters["faults.injected.reconfig_stall"] == 1

    def test_preserves_result_payload(self):
        hook = ForcedDivergenceHook(budget=1)
        real = self.converged_result()
        forced = hook("cg", 0, real)
        assert forced.iterations == real.iterations
        assert forced.solver == real.solver
        assert forced.x is real.x


class TestServeInjectors:
    def test_storm_rewrites_deadlines_inside_window_only(self):
        plan = FaultPlan(0)
        schedule = plan.serve_schedule(duration_s=0.8, slots=3)
        collector = Telemetry()
        with collector.activate():
            requests = storm_requests(
                schedule, seed=0, duration_s=0.8, sources=("Wa", "Li")
            )
        stormed = [
            r
            for r in requests
            if schedule.storm_start_s <= r.arrival_s < schedule.storm_end_s
        ]
        assert stormed, "storm window must cover traffic"
        budget = schedule.storm_deadline_ms * 1e-3
        for request in stormed:
            assert request.deadline_s == pytest.approx(
                request.arrival_s + budget
            )
        assert (
            collector.counters["faults.injected.deadline_storm"]
            == len(stormed)
        )

    def test_service_config_carries_pressure_knobs(self):
        plan = FaultPlan(1)
        schedule = plan.serve_schedule(duration_s=0.8, slots=3)
        collector = Telemetry()
        with collector.activate():
            config = chaos_service_config(schedule, slots=3)
        assert config.queue_capacity == schedule.queue_capacity
        assert config.cache_capacity == schedule.cache_capacity
        assert config.device_faults == schedule.device_faults
        assert config.fleet.slots_per_device == 3
        assert collector.counters["faults.injected.device_outage"] == len(
            schedule.device_faults
        )
