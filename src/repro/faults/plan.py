"""Deterministic fault schedules: the chaos to inject, decided up front.

Chaos testing is only trustworthy when a failing run can be replayed:
the whole point of ``repro chaos --chaos-seed N`` is that the same seed
injects the *byte-identical* fault sequence every time, so a violated
invariant reproduces on demand instead of flaking.  Every schedule here
is therefore a pure function of ``(seed, profile parameters)`` drawn
from a PCG64 generator — the same generator family the load generator
and campaign seeding already use — with one independent ``SeedSequence``
stream per fault domain, so enlarging one schedule never perturbs
another.

Four schedules cover the recovery surfaces the repo ships:

- :class:`PoolFaultSchedule` — per-item worker-death budgets and
  slow-worker stalls for :func:`repro.parallel.engine.run_sharded`
  (injected through its ``executor_factory`` seam),
- :class:`ServeFaultSchedule` — request bursts, a deadline storm
  window, queue/cache pressure and modeled device outages for
  :mod:`repro.serve` (all expressed on the virtual clock),
- :class:`SolverFaultSchedule` — forced-divergence budgets and
  reconfiguration-stall events for the :class:`~repro.core.Acamar`
  attempt loop, driving the Solver Modifier through its transitions,
- :class:`ClusterFaultSchedule` — whole-fleet outages (one timed to
  land just after a forced drain, the outage-mid-drain case) and
  flapping join/drain pairs for the :mod:`repro.serve.cluster` tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.cluster.service import FleetFaultEvent, ForcedScaleEvent
from repro.serve.scheduler import DeviceFaultEvent

CHAOS_PROFILES = ("pool", "serve", "solver", "cluster", "placement")
"""The chaos runner's profile names, one per recovery surface."""

EXHAUSTION_BUDGET = 99
"""A forced-divergence budget no real fallback chain reaches: the case
diverges on *every* configuration, exercising Solver Modifier
exhaustion regardless of which solver the structure unit selected."""

SERVE_QUEUE_CAPACITY = 4
"""Admission queue bound of the serve profile: small enough that every
chaos seed 0-63 preempts at least three requests."""

SERVE_CACHE_CAPACITY = 4
"""Plan-cache bound of the serve profile, below its ten sources."""

# Independent SeedSequence streams per fault domain.
_POOL_STREAM = 1
_SERVE_STREAM = 2
_SOLVER_STREAM = 3
_CLUSTER_STREAM = 4
_PLACEMENT_STREAM = 5


def _rng(seed: int, stream: int) -> np.random.Generator:
    """A PCG64 generator on the (seed, stream) SeedSequence."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, stream)))
    )


@dataclass(frozen=True)
class PoolFaultSchedule:
    """Worker-pool chaos: how often each item kills its worker.

    ``item_kills[i]`` is how many times item ``i`` takes its worker
    process down before behaving (0 = innocent; ``MAX_ITEM_ATTEMPTS``
    or more = the item must surface as a ``WorkerLost`` result).
    ``item_stalls[i]`` marks a slow-worker stall on the item's chunk —
    counted for reconciliation; a stalled worker still completes, so it
    must never change results.
    """

    item_kills: tuple[int, ...]
    item_stalls: tuple[bool, ...]

    @property
    def total_kills(self) -> int:
        return sum(self.item_kills)

    def lethal_indices(self, max_item_attempts: int) -> tuple[int, ...]:
        """Items whose death budget exhausts the engine's retry budget."""
        return tuple(
            i
            for i, kills in enumerate(self.item_kills)
            if kills >= max_item_attempts
        )

    def transient_indices(self, max_item_attempts: int) -> tuple[int, ...]:
        """Items that die at least once but recover within the budget."""
        return tuple(
            i
            for i, kills in enumerate(self.item_kills)
            if 0 < kills < max_item_attempts
        )


@dataclass(frozen=True)
class ServeFaultSchedule:
    """Serving chaos: overload shape plus modeled device faults.

    The storm window ``[storm_start_s, storm_start_s + storm_duration_s)``
    rewrites every covered request's deadline to a tight relative bound,
    mass-exercising the admission/expiry paths; ``queue_capacity`` and
    ``cache_capacity`` (:data:`SERVE_QUEUE_CAPACITY`,
    :data:`SERVE_CACHE_CAPACITY`) are deliberately small so priority
    preemptions and plan-cache evictions genuinely occur on every seed.
    Queue-full sheds usually do too, but some seeds have none.
    """

    rate_rps: float
    storm_start_s: float
    storm_duration_s: float
    storm_deadline_ms: float
    queue_capacity: int
    cache_capacity: int
    device_faults: tuple[DeviceFaultEvent, ...]

    @property
    def storm_end_s(self) -> float:
        return self.storm_start_s + self.storm_duration_s


@dataclass(frozen=True)
class ClusterFaultSchedule:
    """Cluster-tier chaos: fleet outages plus membership flapping.

    ``fleet_faults`` are whole-fleet outages applied through the
    cluster simulator's fault seam; the first one is pinned to fire a
    beat after ``mid_drain_at_s`` (a forced drain in ``forced_scale``),
    so an outage lands while the membership is mid-drain — the case the
    router's rebuild path is most likely to get wrong.  The remaining
    ``forced_scale`` events are flapping join/drain pairs in quick
    succession, exercising bounded remap under churn.  ``rate_rps``
    shapes the driving trace (peak rate of a bursty mix) so queue
    pressure during an outage is real, not incidental.
    """

    rate_rps: float
    mid_drain_at_s: float
    fleet_faults: tuple[FleetFaultEvent, ...]
    forced_scale: tuple[ForcedScaleEvent, ...]


@dataclass(frozen=True)
class PlacementFaultSchedule:
    """Heterogeneous-fleet chaos: flapping GPU tenants on a mixed fleet.

    ``device_faults`` mixes GPU-tenant outages (the flapping tenants —
    repeated short outages in quick succession, the MPS-partition
    preemption case) with at least one FPGA-slot outage, so the audits
    can check that a fault in one device class never evicts the other
    class's residents or steals its slots.  ``rate_rps`` shapes the
    driving trace so both slot pools carry real batches while tenants
    flap.
    """

    rate_rps: float
    device_faults: tuple[DeviceFaultEvent, ...]

    def faults_for(self, device_class: str) -> tuple[DeviceFaultEvent, ...]:
        """The scheduled outages targeting one device class."""
        return tuple(
            e for e in self.device_faults if e.device_class == device_class
        )


@dataclass(frozen=True)
class SolverFaultSchedule:
    """Attempt-loop chaos, one entry per solver case.

    ``divergence_budgets[k]`` forces the first that-many attempts of
    case ``k`` to diverge (:data:`EXHAUSTION_BUDGET` forces *every*
    attempt, exercising exhaustion); ``stall_attempts[k]`` lists the
    attempt indices that additionally model an ICAP reconfiguration
    stall while the Solver Modifier swaps regions.
    """

    divergence_budgets: tuple[int, ...]
    stall_attempts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FaultPlan:
    """One seed's complete, reproducible chaos schedule."""

    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(
                f"chaos seed must be >= 0, got {self.seed}"
            )

    def pool_schedule(
        self,
        n_items: int,
        death_rate: float = 0.4,
        lethal_share: float = 0.5,
        stall_rate: float = 0.25,
        max_item_attempts: int = 2,
    ) -> PoolFaultSchedule:
        """Draw worker-death budgets and stall marks for ``n_items``.

        Two transitions are guaranteed on every seed so the chaos run
        always drives both recovery paths: at least one item recovers
        via singleton resubmission (transient death) and at least one
        exhausts the retry budget (``WorkerLost``).
        """
        if n_items < 2:
            raise ConfigurationError(
                f"pool chaos needs >= 2 items, got {n_items}"
            )
        rng = _rng(self.seed, _POOL_STREAM)
        kills = []
        for _ in range(n_items):
            if rng.random() < death_rate:
                kills.append(
                    max_item_attempts if rng.random() < lethal_share else 1
                )
            else:
                kills.append(0)
        stalls = tuple(
            bool(rng.random() < stall_rate) for _ in range(n_items)
        )
        lethal = [k >= max_item_attempts for k in kills]
        if not any(lethal):
            kills[int(rng.integers(n_items))] = max_item_attempts
        if not any(0 < k < max_item_attempts for k in kills):
            # First non-lethal slot becomes the guaranteed transient.
            for index, k in enumerate(kills):
                if k < max_item_attempts:
                    kills[index] = 1
                    break
            else:  # every item lethal: downgrade the last one
                kills[-1] = 1
        return PoolFaultSchedule(
            item_kills=tuple(kills), item_stalls=stalls
        )

    def serve_schedule(
        self, duration_s: float, slots: int
    ) -> ServeFaultSchedule:
        """Draw the serving overload shape and device-outage events."""
        if duration_s <= 0:
            raise ConfigurationError(
                f"serve chaos duration must be > 0 s, got {duration_s}"
            )
        if slots < 1:
            raise ConfigurationError(
                f"serve chaos needs >= 1 fleet slot, got {slots}"
            )
        rng = _rng(self.seed, _SERVE_STREAM)
        rate = float(np.round(rng.uniform(140.0, 220.0), 6))
        storm_start = float(np.round(rng.uniform(0.1, 0.5) * duration_s, 9))
        storm_duration = float(
            np.round(rng.uniform(0.2, 0.4) * duration_s, 9)
        )
        storm_deadline_ms = float(np.round(rng.uniform(2.0, 6.0), 6))
        n_faults = int(rng.integers(2, 5))
        faults = tuple(
            DeviceFaultEvent(
                at_s=float(np.round(rng.uniform(0.0, duration_s), 9)),
                slot=int(rng.integers(slots)),
                outage_s=float(np.round(rng.uniform(0.02, 0.15), 9)),
            )
            for _ in range(n_faults)
        )
        return ServeFaultSchedule(
            rate_rps=rate,
            storm_start_s=storm_start,
            storm_duration_s=storm_duration,
            storm_deadline_ms=storm_deadline_ms,
            queue_capacity=SERVE_QUEUE_CAPACITY,
            cache_capacity=SERVE_CACHE_CAPACITY,
            device_faults=faults,
        )

    def cluster_schedule(
        self,
        duration_s: float,
        max_ordinal: int = 8,
    ) -> ClusterFaultSchedule:
        """Draw the cluster-tier outage and membership-churn schedule.

        Two transitions are guaranteed on every seed: at least one
        flapping join/drain pair (a forced add followed by a forced
        drain a fraction of the run later) and one outage scheduled
        right after a forced drain, so a fleet fault always lands while
        the membership is still settling.  Fleet targets are drawn as
        *ordinals* over the alive set at fire time — the schedule can
        be decided up front without knowing which fleet ids will exist.
        """
        if duration_s <= 0:
            raise ConfigurationError(
                f"cluster chaos duration must be > 0 s, got {duration_s}"
            )
        rng = _rng(self.seed, _CLUSTER_STREAM)
        rate = float(np.round(rng.uniform(1400.0, 2000.0), 6))
        forced: list[ForcedScaleEvent] = []
        n_flaps = int(rng.integers(1, 3))
        for _ in range(n_flaps):
            join_at = float(np.round(rng.uniform(0.1, 0.35) * duration_s, 9))
            gap = float(np.round(rng.uniform(0.05, 0.15) * duration_s, 9))
            forced.append(ForcedScaleEvent(at_s=join_at, action="add"))
            forced.append(
                ForcedScaleEvent(
                    at_s=float(np.round(join_at + gap, 9)), action="drain"
                )
            )
        mid_drain_at = float(np.round(rng.uniform(0.5, 0.65) * duration_s, 9))
        forced.append(ForcedScaleEvent(at_s=mid_drain_at, action="drain"))
        faults = [
            # The mid-drain outage: one beat after the forced drain.
            FleetFaultEvent(
                at_s=float(np.round(mid_drain_at + 0.02 * duration_s, 9)),
                fleet_ordinal=int(rng.integers(max_ordinal)),
                outage_s=float(
                    np.round(rng.uniform(0.05, 0.12) * duration_s, 9)
                ),
            )
        ]
        for _ in range(int(rng.integers(1, 3))):
            faults.append(
                FleetFaultEvent(
                    at_s=float(
                        np.round(rng.uniform(0.05, 0.85) * duration_s, 9)
                    ),
                    fleet_ordinal=int(rng.integers(max_ordinal)),
                    outage_s=float(
                        np.round(rng.uniform(0.03, 0.1) * duration_s, 9)
                    ),
                )
            )
        return ClusterFaultSchedule(
            rate_rps=rate,
            mid_drain_at_s=mid_drain_at,
            fleet_faults=tuple(faults),
            forced_scale=tuple(forced),
        )

    def placement_schedule(
        self,
        duration_s: float,
        fpga_slots: int,
        gpu_tenants: int,
    ) -> PlacementFaultSchedule:
        """Draw the mixed-fleet outage schedule (flapping GPU tenants).

        Two transitions are guaranteed on every seed: at least one GPU
        tenant flaps (two short outages in quick succession on the same
        tenant ordinal) and at least one FPGA-slot outage lands, so the
        class-isolation audit always has both fault kinds to reconcile.
        """
        if duration_s <= 0:
            raise ConfigurationError(
                f"placement chaos duration must be > 0 s, got {duration_s}"
            )
        if fpga_slots < 1 or gpu_tenants < 1:
            raise ConfigurationError(
                "placement chaos needs a mixed fleet (>= 1 FPGA slot and "
                f">= 1 GPU tenant), got {fpga_slots} / {gpu_tenants}"
            )
        rng = _rng(self.seed, _PLACEMENT_STREAM)
        rate = float(np.round(rng.uniform(140.0, 220.0), 6))
        faults: list[DeviceFaultEvent] = []
        # The guaranteed flap: one tenant goes down twice, back to back.
        flap_tenant = int(rng.integers(gpu_tenants))
        flap_at = float(np.round(rng.uniform(0.1, 0.4) * duration_s, 9))
        flap_outage = float(np.round(rng.uniform(0.02, 0.08), 9))
        flap_gap = float(np.round(rng.uniform(0.05, 0.15) * duration_s, 9))
        for at_s in (flap_at, float(np.round(flap_at + flap_gap, 9))):
            faults.append(
                DeviceFaultEvent(
                    at_s=at_s,
                    slot=flap_tenant,
                    outage_s=flap_outage,
                    device_class="gpu",
                )
            )
        for _ in range(int(rng.integers(0, 3))):
            faults.append(
                DeviceFaultEvent(
                    at_s=float(
                        np.round(rng.uniform(0.0, duration_s), 9)
                    ),
                    slot=int(rng.integers(gpu_tenants)),
                    outage_s=float(np.round(rng.uniform(0.02, 0.1), 9)),
                    device_class="gpu",
                )
            )
        # The guaranteed cross-class fault: one FPGA slot outage.
        for _ in range(int(rng.integers(1, 3))):
            faults.append(
                DeviceFaultEvent(
                    at_s=float(
                        np.round(rng.uniform(0.0, duration_s), 9)
                    ),
                    slot=int(rng.integers(fpga_slots)),
                    outage_s=float(np.round(rng.uniform(0.02, 0.15), 9)),
                    device_class="fpga",
                )
            )
        return PlacementFaultSchedule(
            rate_rps=rate, device_faults=tuple(faults)
        )

    def solver_schedule(
        self, n_cases: int, max_recovery_budget: int = 2
    ) -> SolverFaultSchedule:
        """Draw forced-divergence budgets for ``n_cases`` solver cases.

        Case 0 always carries :data:`EXHAUSTION_BUDGET` (every
        configuration diverges → the Modifier must exhaust cleanly);
        the remaining cases draw a recovery budget in
        ``[1, max_recovery_budget]`` so the fallback chain is entered
        but a later configuration is allowed to converge.
        """
        if n_cases < 1:
            raise ConfigurationError(
                f"solver chaos needs >= 1 case, got {n_cases}"
            )
        rng = _rng(self.seed, _SOLVER_STREAM)
        budgets = [EXHAUSTION_BUDGET]
        budgets.extend(
            int(rng.integers(1, max_recovery_budget + 1))
            for _ in range(n_cases - 1)
        )
        stalls = []
        for budget in budgets:
            horizon = min(budget, max_recovery_budget + 1)
            marks = sorted(
                {
                    int(a)
                    for a in rng.integers(
                        0, horizon, size=int(rng.integers(0, horizon + 1))
                    )
                }
            )
            stalls.append(tuple(marks))
        return SolverFaultSchedule(
            divergence_budgets=tuple(budgets),
            stall_attempts=tuple(stalls),
        )
