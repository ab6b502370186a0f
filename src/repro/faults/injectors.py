"""Adapters that thread a fault plan into the three recovery surfaces.

Each injector rides an existing seam rather than patching internals:

- :class:`ChaosExecutorFactory` plugs into ``run_sharded``'s
  ``executor_factory`` parameter and simulates worker-process deaths
  (``BrokenProcessPool``) and slow-worker stalls on the plan's
  per-item schedule,
- :class:`ForcedDivergenceHook` is an :data:`repro.core.FaultHook`
  that forces the leading attempts of an :class:`~repro.core.Acamar`
  solve to diverge, driving the Solver Modifier's fallback chain,
- :func:`storm_requests` / :func:`chaos_service_config` shape serving
  traffic and the service configuration so deadline storms, queue
  pressure, plan-cache evictions and device outages all occur on the
  virtual clock.

Every injected event bumps a ``faults.injected.*`` counter on the
active telemetry collector, so the chaos runner can reconcile what it
*injected* against what the surface *reported* — the whole basis of
its invariants.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

from repro import telemetry as tm
from repro.serve.api import SolveRequest
from repro.serve.cluster.service import ClusterConfig
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import ServiceConfig
from repro.fpga.multitenancy import FleetSpec
from repro.solvers.base import SolveResult, SolveStatus
from repro.faults.plan import (
    ClusterFaultSchedule,
    PlacementFaultSchedule,
    PoolFaultSchedule,
    ServeFaultSchedule,
)


# -- worker-pool surface ------------------------------------------------


class ChaosExecutor:
    """Inline executor that kills "workers" on the plan's schedule.

    Mirrors enough of ``ProcessPoolExecutor``'s surface for
    ``run_sharded``: chunks execute inline, deterministically, in
    submission order.  A chunk containing any item with remaining death
    budget raises :class:`BrokenProcessPool` instead of returning —
    and consumes one death from *every* marked member, so singleton
    resubmission localizes blame exactly like the real pool.  Stalled
    items complete normally (a slow worker is late, not wrong); the
    stall is only counted, and the invariant is that it changes
    nothing.
    """

    def __init__(
        self,
        kills_remaining: dict[int, int],
        stalls: frozenset[int],
    ) -> None:
        self.kills_remaining = kills_remaining
        self.stalls = stalls

    def submit(self, fn, items, config) -> Future:
        future: Future = Future()
        marked = [
            item.index
            for item in items
            if self.kills_remaining.get(item.index, 0) > 0
        ]
        if marked:
            for index in marked:
                self.kills_remaining[index] -= 1
                tm.count("faults.injected.worker_death")
            future.set_exception(
                BrokenProcessPool("chaos: injected worker death")
            )
            return future
        for item in items:
            if item.index in self.stalls:
                tm.count("faults.injected.worker_stall")
        future.set_result(fn(items, config))
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        return None


@dataclass
class ChaosExecutorFactory:
    """``executor_factory`` seam: one pool per epoch, shared fault state.

    The death budgets persist across pool restarts (they belong to the
    *item*, not the pool), so an item with budget ``k`` breaks its first
    ``k`` pools and then behaves — which is exactly how the engine's
    retry accounting classifies transient vs. lethal items.
    """

    schedule: PoolFaultSchedule
    pools_created: int = 0

    def __post_init__(self) -> None:
        self._kills = {
            index: kills
            for index, kills in enumerate(self.schedule.item_kills)
            if kills > 0
        }
        self._stalls = frozenset(
            index
            for index, stalled in enumerate(self.schedule.item_stalls)
            if stalled
        )

    def __call__(self, workers: int) -> ChaosExecutor:
        self.pools_created += 1
        return ChaosExecutor(self._kills, self._stalls)


# -- solver attempt-loop surface ----------------------------------------


@dataclass
class ForcedDivergenceHook:
    """:data:`~repro.core.accelerator.FaultHook` forcing early attempts
    to diverge.

    The first ``budget`` attempts have their (real) results replaced by
    a ``DIVERGED`` copy, so the Solver Modifier must walk its fallback
    chain; attempt indices in ``stall_attempts`` additionally model an
    ICAP reconfiguration stall (counted — the stall delays hardware,
    it does not change the decision).  ``forced`` records the solver
    names whose results were replaced, in order, for reconciliation
    against the reported attempt chain.
    """

    budget: int
    stall_attempts: frozenset[int] = frozenset()
    forced: list[str] = field(default_factory=list)

    def __call__(
        self, solver_name: str, attempt_index: int, result: SolveResult
    ) -> SolveResult | None:
        if attempt_index >= self.budget:
            return None
        self.forced.append(solver_name)
        tm.count("faults.injected.divergence")
        if attempt_index in self.stall_attempts:
            tm.count("faults.injected.reconfig_stall")
        return dataclasses.replace(result, status=SolveStatus.DIVERGED)


# -- serving surface ----------------------------------------------------


def storm_requests(
    schedule: ServeFaultSchedule,
    seed: int,
    duration_s: float,
    sources: Sequence[str],
    deadline_ms: float = 60.0,
) -> list[SolveRequest]:
    """Bursty traffic with the plan's deadline storm overlaid.

    Generates a ``bursty``-mix request log at the schedule's rate, then
    rewrites the deadline of *every* request arriving inside the storm
    window to the storm's tight relative bound — including batch and
    best-effort traffic that normally carries none — so the admission
    and in-queue expiry paths are exercised under mass pressure.
    """
    spec = LoadSpec(
        seed=seed,
        duration_s=duration_s,
        rate_rps=schedule.rate_rps,
        mix="bursty",
        deadline_ms=deadline_ms,
        sources=tuple(sources),
    )
    requests: list[SolveRequest] = []
    for request in generate_requests(spec):
        if schedule.storm_start_s <= request.arrival_s < schedule.storm_end_s:
            tm.count("faults.injected.deadline_storm")
            request = dataclasses.replace(
                request,
                deadline_s=round(
                    request.arrival_s + schedule.storm_deadline_ms * 1e-3, 9
                ),
            )
        requests.append(request)
    return requests


def chaos_service_config(
    schedule: ServeFaultSchedule, slots: int
) -> ServiceConfig:
    """Service configuration that makes the scheduled pressure real.

    Queue and plan-cache capacities come from the schedule (small on
    purpose: preemptions and cache evictions must actually happen, and
    the runner checks that they did), and the plan's device outages are
    handed to the scheduler's fault seam; each outage is counted here as
    injected.
    """
    for _ in schedule.device_faults:
        tm.count("faults.injected.device_outage")
    return ServiceConfig(
        queue_capacity=schedule.queue_capacity,
        max_batch=4,
        cache_capacity=schedule.cache_capacity,
        fleet=FleetSpec(slots_per_device=slots),
        device_faults=schedule.device_faults,
    )


def chaos_placement_config(
    schedule: PlacementFaultSchedule,
    fpga_slots: int,
    gpu_tenants: int,
) -> ServiceConfig:
    """Mixed-fleet configuration under the plan's flapping tenants.

    The fleet tenants both device classes (with CPU assist on, so the
    offload path is exercised too) and the plan's class-tagged outages
    ride the scheduler's fault seam; each is counted here as injected.
    """
    for _ in schedule.device_faults:
        tm.count("faults.injected.device_outage")
    return ServiceConfig(
        queue_capacity=256,
        max_batch=4,
        fleet=FleetSpec(
            slots_per_device=fpga_slots,
            gpu_tenants=gpu_tenants,
            cpu_assist=True,
        ),
        device_faults=schedule.device_faults,
    )


# -- cluster surface ----------------------------------------------------


def chaos_cluster_config(
    schedule: ClusterFaultSchedule, slots_per_fleet: int = 2
) -> ClusterConfig:
    """Cluster configuration that makes the scheduled churn real.

    Capacities are deliberately tight: the per-fleet queue is small
    enough that re-routed traffic during an outage sheds visibly, and
    the 4-entry local cache tier forces evictions and remote hits so
    the whole cost ladder is exercised.  The plan's fleet outages and
    forced scale events ride the simulator's own chaos seams; the
    simulator counts each *applied* event under ``faults.injected.*``,
    so the runner reconciles scheduled vs. applied vs. observed.
    """
    return ClusterConfig(
        initial_fleets=2,
        min_fleets=1,
        max_fleets=6,
        slots_per_fleet=slots_per_fleet,
        max_batch=8,
        queue_capacity=512,
        cache_capacity=4,
        fleet_faults=schedule.fleet_faults,
        forced_scale=schedule.forced_scale,
    )
