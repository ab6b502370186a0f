"""The cluster serving simulator: router → fleets → tiered cache, on a
heap-driven virtual clock.

This is the multi-fleet generalization of :mod:`repro.serve.service`.
The host tier does everything the CPU is good at — fingerprint routing,
cache directory lookups, scale decisions — while fleets charge modeled
device time, mirroring the CPU–FPGA division of labor the serving docs
describe.  The design constraints, in order:

1. **Scale.**  ``--duration 3600 --rate 10000`` is ~36M requests and
   must finish in seconds of wall-clock.  The trace is a
   struct-of-arrays (:mod:`repro.serve.cluster.trace`), the loop is
   driven by a heap-based :class:`~repro.serve.cluster.events.TimerWheel`
   whose only per-event Python work is membership changes and epoch
   boundaries, and each epoch consumes its arrivals as vectorized
   ``searchsorted`` batches.  The only per-item Python loop is per
   *micro-batch* (~``rate / max_batch`` iterations per second of
   virtual time).

2. **Determinism.**  Everything runs on the virtual clock: no wall
   time, no unseeded randomness, membership changes only at event
   timestamps, ties broken by fleet id or push order.  A seed fully
   determines the report — byte-identical across runs, machines and
   ``--workers`` counts (workers only parallelize cold profiling, whose
   results are ordered).

3. **Exact accounting.**  Every generated request ends in exactly one
   bucket: ``completed``, ``shed_overflow`` (per-fleet admission queue
   full), ``shed_drain_limit`` (simulation refused to drain forever),
   ``expired`` (deadline lapsed while queued, swept at epoch
   boundaries) or ``failed`` (unprofileable source).  The report's
   ``unaccounted`` field is asserted zero in CI.

Modeling notes, deliberate and documented: deadlines are enforced at
epoch granularity (a request overtaken mid-epoch completes late rather
than expiring); there is no cross-fleet work stealing (affinity is the
point); priorities shape deadlines and reporting, not preemption —
preemption lives in the single-fleet tier where per-request objects
make it cheap.  A faulted fleet's in-flight batches complete, its slots
freeze until recovery, and its queue waits (the drain-limit backstop
bounds the wait).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry as tm
from repro.config import AcamarConfig, check_integer_fields
from repro.errors import ConfigurationError
from repro.placement import (
    CPU_ASSIST_ROUNDTRIP_SECONDS,
    FPGA,
    GPU,
    PlacementDecision,
    decide_placement,
    placement_section,
)
from repro.serve.api import PRIORITY_NAMES, Priority
from repro.serve.cluster.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    IntervalSignals,
    ScaleAction,
)
from repro.serve.cluster.cache import MISS, TieredPlanCache
from repro.serve.cluster.events import (
    EVENT_EPOCH,
    EVENT_FLEET_FAULT,
    EVENT_FLEET_RECOVER,
    EVENT_FORCED_SCALE,
    TimerWheel,
)
from repro.serve.cluster.ring import DEFAULT_VNODES, HashRing
from repro.serve.cluster.trace import RequestTrace
from repro.serve.loadgen import LoadSpec
from repro.serve.profile import DISPATCH_OVERHEAD_SECONDS, SolveProfile
from repro.serve.service import DRAIN_LIMIT_FACTOR, build_profiles
from repro.serve.stats import format_latency_ms, latency_summary_ms_array
from repro.telemetry import Telemetry, percentile

CLUSTER_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FleetFaultEvent:
    """A whole-fleet outage: slots freeze, residents wipe, ring exit.

    ``fleet_ordinal`` indexes the sorted alive-fleet id list *at the
    event's timestamp* (modulo its length), so a chaos schedule written
    against seeds stays valid whatever the autoscaler did meanwhile.
    """

    at_s: float
    fleet_ordinal: int
    outage_s: float


@dataclass(frozen=True)
class ForcedScaleEvent:
    """A chaos-driven membership change ("add" or "drain").

    Bypasses the autoscaler's hysteresis but not its floor/ceiling:
    forced drains never go below ``min_fleets`` and forced adds never
    exceed ``max_fleets``, so chaos cannot wedge the cluster.
    """

    at_s: float
    action: str

    def __post_init__(self) -> None:
        if self.action not in ("add", "drain"):
            raise ConfigurationError(
                f"forced scale action must be 'add' or 'drain', "
                f"got {self.action!r}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the cluster tier (defaults favor a small deployment)."""

    initial_fleets: int = 2
    min_fleets: int = 1
    max_fleets: int = 8
    slots_per_fleet: int = 4
    gpu_tenants_per_fleet: int = 0
    cpu_assist: bool = False
    max_gpu_tenants: int | None = None
    max_batch: int = 64
    batch_fill_ms: float = 40.0
    queue_capacity: int = 4096
    cache_capacity: int = 256
    remote_fetch_ms: float = 0.25
    interval_s: float = 1.0
    vnodes: int = DEFAULT_VNODES
    affinity_routing: bool = True
    autoscale: bool = True
    policy: AutoscalerPolicy = field(default_factory=AutoscalerPolicy)
    workers: int = 1
    fleet_faults: tuple[FleetFaultEvent, ...] = ()
    forced_scale: tuple[ForcedScaleEvent, ...] = ()

    def __post_init__(self) -> None:
        check_integer_fields(self, (
            ("min_fleets", 1), ("initial_fleets", 1), ("max_fleets", 1),
            ("slots_per_fleet", 0), ("gpu_tenants_per_fleet", 0),
            ("max_batch", 1), ("queue_capacity", 1), ("cache_capacity", 1),
            ("vnodes", 1), ("workers", 1),
        ))
        if self.max_gpu_tenants is not None:
            check_integer_fields(self, (("max_gpu_tenants", 0),))
        if not (
            self.min_fleets <= self.initial_fleets <= self.max_fleets
        ):
            raise ConfigurationError(
                "need min_fleets <= initial_fleets <= max_fleets, got "
                f"{self.min_fleets} / {self.initial_fleets} / "
                f"{self.max_fleets}"
            )
        if self.slots_per_fleet + self.gpu_tenants_per_fleet < 1:
            raise ConfigurationError(
                "a fleet needs at least one dispatchable slot "
                "(slots_per_fleet + gpu_tenants_per_fleet >= 1)"
            )
        if not (math.isfinite(self.interval_s) and self.interval_s > 0):
            raise ConfigurationError(
                f"interval_s must be a finite number > 0, got {self.interval_s}"
            )
        for name in ("batch_fill_ms", "remote_fetch_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be a finite number >= 0, got {value}"
                )
        if self.batch_fill_ms * 1e-3 >= self.interval_s:
            raise ConfigurationError(
                "batch fill window must be shorter than the epoch "
                f"interval, got {self.batch_fill_ms} ms vs "
                f"{self.interval_s} s"
            )

    @property
    def heterogeneous(self) -> bool:
        """Whether any non-FPGA tenancy is configured (schema gate:
        pure-FPGA reports must stay byte-identical with earlier
        releases, so every placement-specific key is conditional on
        this)."""
        return self.gpu_tenants_per_fleet > 0 or self.cpu_assist

    def as_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "initial_fleets": self.initial_fleets,
            "min_fleets": self.min_fleets,
            "max_fleets": self.max_fleets,
            "slots_per_fleet": self.slots_per_fleet,
            "max_batch": self.max_batch,
            "batch_fill_ms": self.batch_fill_ms,
            "queue_capacity": self.queue_capacity,
            "cache_capacity": self.cache_capacity,
            "remote_fetch_ms": self.remote_fetch_ms,
            "interval_s": self.interval_s,
            "vnodes": self.vnodes,
            "affinity_routing": self.affinity_routing,
            "autoscale": self.autoscale,
            "policy": self.policy.as_dict(),
            "fleet_faults": len(self.fleet_faults),
            "forced_scale": len(self.forced_scale),
        }
        if self.heterogeneous:
            document["gpu_tenants_per_fleet"] = self.gpu_tenants_per_fleet
            document["cpu_assist"] = self.cpu_assist
            document["max_gpu_tenants"] = self.max_gpu_tenants
        return document


class FleetState:
    """Mutable per-fleet simulation state (slots, queues, lifecycle).

    Slot indices are class-partitioned: FPGA slots occupy
    ``[0, fpga_slots)`` and GPU tenants ``[fpga_slots, slots)``, so the
    dispatch loop scans a contiguous range per device class instead of
    filtering.
    """

    def __init__(
        self,
        fleet_id: int,
        slots: int,
        at_s: float,
        gpu_tenants: int = 0,
    ) -> None:
        self.fleet_id = fleet_id
        self.fpga_slots = slots
        self.gpu_tenants = gpu_tenants
        # Plain Python floats: slot counts are single digits and the
        # dispatch loop touches them per batch, where small-ndarray
        # operator overhead would dominate the whole simulation.
        self.slot_free: list[float] = [at_s] * (slots + gpu_tenants)
        self.slot_resident: list[str] = [""] * (slots + gpu_tenants)
        # source_idx -> [trace-index array, arrival array, pointer]
        self.queues: dict[int, list[Any]] = {}
        self.backlog = 0
        self.joined_s = at_s
        self.drained_s: float | None = None
        self.retired_s: float | None = None
        self.faulted_until: float | None = None
        self.alive = True
        self.busy_seconds = 0.0
        self.completed = 0
        self.batches = 0
        self.batch_members = 0
        self.max_batch_size = 0
        self.config_loads = 0
        self.gpu_transfers = 0
        self.gpu_batches = 0
        self.outages = 0
        self.last_routed_s: float | None = None

    @property
    def draining(self) -> bool:
        return self.drained_s is not None

    @property
    def slots(self) -> int:
        return len(self.slot_free)

    def slot_range(self, device_class: str) -> tuple[int, int]:
        """Index range of the slots serving ``device_class``.

        A class the fleet does not tenant falls back to the other
        class's range — placement decisions are cluster-wide, but a
        clamped or legacy fleet must still serve every source routed to
        it.
        """
        if device_class == GPU and self.gpu_tenants > 0:
            return self.fpga_slots, self.fpga_slots + self.gpu_tenants
        if self.fpga_slots > 0:
            return 0, self.fpga_slots
        return self.fpga_slots, self.fpga_slots + self.gpu_tenants

    def as_dict(self, horizon_s: float) -> dict[str, Any]:
        lifetime = (
            self.retired_s if self.retired_s is not None else horizon_s
        ) - self.joined_s
        slot_seconds = lifetime * self.slots
        document: dict[str, Any] = {
            "fleet_id": self.fleet_id,
            "slots": self.slots,
            "joined_s": round(self.joined_s, 9),
            "drained_s": (
                None if self.drained_s is None else round(self.drained_s, 9)
            ),
            "retired_s": (
                None if self.retired_s is None else round(self.retired_s, 9)
            ),
            "completed": self.completed,
            "batches": self.batches,
            "config_loads": self.config_loads,
            "outages": self.outages,
            "busy_seconds": round(self.busy_seconds, 9),
            "busy_fraction": round(
                self.busy_seconds / slot_seconds, 9
            ) if slot_seconds > 0 else 0.0,
        }
        if self.gpu_tenants > 0:
            document["gpu_tenants"] = self.gpu_tenants
            document["gpu_batches"] = self.gpu_batches
            document["gpu_transfers"] = self.gpu_transfers
        return document


@dataclass
class ClusterReport:
    """Aggregate outcome of one cluster run, with a stable JSON form.

    Unlike :class:`~repro.serve.service.ServingReport` there is no
    per-request response log — at 36M requests that would be the whole
    point of the array-native design thrown away.  Latency populations
    are kept as arrays and summarized; accounting is exact counts.
    """

    config: ClusterConfig
    meta: dict[str, Any]
    generated: int
    latencies_ms: np.ndarray
    latency_priorities: np.ndarray
    counts: dict[str, int]
    fleets: list[FleetState]
    autoscaler: Autoscaler
    cache: TieredPlanCache
    wheel: TimerWheel
    horizon_s: float
    queue_depth_samples: list[int]
    counters: dict[str, int]
    placements: dict[str, PlacementDecision] = field(default_factory=dict)
    telemetry: Telemetry = field(default_factory=Telemetry)
    # Cached document: the latency section partitions a multi-million
    # element array, so summary_lines() + write_json() must not pay for
    # it twice.  Treat the returned dict as read-only.
    _doc: "dict[str, Any] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def completed(self) -> int:
        return self.counts["completed"]

    @property
    def unaccounted(self) -> int:
        accounted = (
            self.counts["completed"]
            + self.counts["shed_overflow"]
            + self.counts["shed_drain_limit"]
            + self.counts["expired"]
            + self.counts["failed"]
        )
        return self.generated - accounted

    def _latency_section(self) -> dict[str, Any]:
        # Per-priority subsets are extracted first: the overall summary
        # consumes the population array (partitions it in place), which
        # destroys its alignment with ``latency_priorities``.  Each
        # subset copy is likewise consumed by its own summary, so the
        # section allocates only the subsets — no full-size copies.
        by_priority = {}
        for priority in Priority:
            mask = self.latency_priorities == priority.value
            by_priority[PRIORITY_NAMES[priority]] = (
                latency_summary_ms_array(
                    self.latencies_ms[mask], consume=True
                )
            )
        overall = latency_summary_ms_array(self.latencies_ms, consume=True)
        return {"overall": overall, "by_priority": by_priority}

    def as_dict(self) -> dict[str, Any]:
        if self._doc is not None:
            return self._doc
        shed = (
            self.counts["shed_overflow"]
            + self.counts["shed_drain_limit"]
            + self.counts["expired"]
        )
        non_hold = [
            d.as_dict()
            for d in self.autoscaler.decisions
            if d.action is not ScaleAction.HOLD
        ]
        batch_members = sum(f.batch_members for f in self.fleets)
        batch_count = sum(f.batches for f in self.fleets)
        provisioned_fleet_s = 0.0
        provisioned_slot_s = 0.0
        provisioned_gpu_s = 0.0
        for fleet in self.fleets:
            lifetime = (
                fleet.retired_s
                if fleet.retired_s is not None
                else self.horizon_s
            ) - fleet.joined_s
            provisioned_fleet_s += lifetime
            provisioned_slot_s += lifetime * fleet.slots
            provisioned_gpu_s += lifetime * fleet.gpu_tenants
        document: dict[str, Any] = {
            "schema_version": CLUSTER_SCHEMA_VERSION,
            "cluster": {**self.meta, **self.config.as_dict()},
            "requests": {
                "generated": self.generated,
                "completed": self.counts["completed"],
                "failed": self.counts["failed"],
                "shed_overflow": self.counts["shed_overflow"],
                "shed_drain_limit": self.counts["shed_drain_limit"],
                "expired": self.counts["expired"],
                "unaccounted": self.unaccounted,
                "shed_rate": round(
                    shed / self.generated, 9
                ) if self.generated else 0.0,
            },
            "latency_ms": self._latency_section(),
            "routing": {
                "affinity": self.config.affinity_routing,
                "routed": self.counts["routed"],
                "remapped": self.counts["remapped"],
                "ring_rebuilds": self.counts["ring_rebuilds"],
            },
            "cache": self.cache.as_dict(),
            "autoscaler": {
                "enabled": self.config.autoscale,
                "evaluations": len(self.autoscaler.decisions),
                "scale_ups": sum(
                    1 for d in self.autoscaler.decisions
                    if d.action is ScaleAction.ADD
                ),
                "drains": sum(
                    1 for d in self.autoscaler.decisions
                    if d.action is ScaleAction.DRAIN
                ),
                "retired": sum(
                    1 for f in self.fleets if f.retired_s is not None
                ),
                "decisions": non_hold,
            },
            "fleets": {
                "peak": max(
                    self.counts["peak_fleets"], self.config.initial_fleets
                ),
                "final": sum(1 for f in self.fleets if f.alive),
                "provisioned_fleet_seconds": round(provisioned_fleet_s, 9),
                "provisioned_slot_seconds": round(provisioned_slot_s, 9),
                "device_seconds": round(
                    sum(f.busy_seconds for f in self.fleets), 9
                ),
                "horizon_s": round(self.horizon_s, 9),
                "members": [f.as_dict(self.horizon_s) for f in self.fleets],
            },
            "batches": {
                "count": batch_count,
                "mean_size": round(
                    batch_members / batch_count, 9
                ) if batch_count else 0.0,
                "max_size": max(
                    (f.max_batch_size for f in self.fleets), default=0
                ),
                "config_loads": sum(f.config_loads for f in self.fleets),
            },
            "queue": {
                "max_depth": max(self.queue_depth_samples, default=0),
                "mean_depth": round(
                    sum(self.queue_depth_samples)
                    / len(self.queue_depth_samples), 9
                ) if self.queue_depth_samples else 0.0,
            },
            "events": {
                "pushed": self.wheel.pushed,
                "popped": self.wheel.popped,
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if self.config.heterogeneous:
            document["fleets"]["provisioned_gpu_tenant_seconds"] = round(
                provisioned_gpu_s, 9
            )
            document["batches"]["gpu_batches"] = sum(
                f.gpu_batches for f in self.fleets
            )
            document["batches"]["gpu_transfers"] = sum(
                f.gpu_transfers for f in self.fleets
            )
            document["placement"] = placement_section(self.placements)
        self._doc = document
        return document

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    def summary_lines(self) -> list[str]:
        doc = self.as_dict()
        overall = doc["latency_ms"]["overall"]
        lookups = doc["cache"]["lookups"]
        return [
            f"requests generated     : {doc['requests']['generated']}",
            f"completed / failed     : {doc['requests']['completed']} / "
            f"{doc['requests']['failed']}",
            f"shed (overflow/drain)  : {doc['requests']['shed_overflow']} / "
            f"{doc['requests']['shed_drain_limit']} "
            f"(+{doc['requests']['expired']} expired, "
            f"shed rate {doc['requests']['shed_rate']:.1%})",
            f"latency p50 / p99      : {format_latency_ms(overall['p50'])} / "
            f"{format_latency_ms(overall['p99'])} ms",
            f"cache local hit rate   : {lookups['local_hit_rate']:.1%} "
            f"({lookups['remote_hits']} remote, {lookups['misses']} miss)",
            f"fleets peak / final    : {doc['fleets']['peak']} / "
            f"{doc['fleets']['final']} "
            f"({doc['autoscaler']['scale_ups']} ups, "
            f"{doc['autoscaler']['drains']} drains)",
            f"router remaps          : {doc['routing']['remapped']} over "
            f"{doc['routing']['ring_rebuilds']} rebuilds",
            f"device seconds         : "
            f"{doc['fleets']['device_seconds']:.4f} provisioned "
            f"{doc['fleets']['provisioned_slot_seconds']:.1f} slot-s",
            f"timer events           : {doc['events']['popped']} popped",
        ]


class _ClusterSimulation:
    """One cluster run; see the module docstring for the design."""

    def __init__(
        self,
        trace: RequestTrace,
        config: ClusterConfig,
        profiles: dict[str, "SolveProfile | str"],
    ) -> None:
        self.trace = trace
        self.config = config
        self.n_sources = len(trace.sources)
        self.profiles: list[SolveProfile | None] = []
        self.fingerprints: list[str] = []
        for key in trace.sources:
            profile = profiles.get(key)
            if isinstance(profile, SolveProfile):
                self.profiles.append(profile)
                self.fingerprints.append(profile.fingerprint)
            else:
                self.profiles.append(None)
                self.fingerprints.append("")
        self.failed_source = np.array(
            [p is None for p in self.profiles], dtype=bool
        )
        # Per-source scalar cost tables: the dispatch loop runs once per
        # micro-batch, so profile property lookups there would be pure
        # overhead.  ``*_total`` includes the per-request dispatch cost.
        # CPU assist is folded into the cold totals here — the dispatch
        # loop only ever sees the effective cold cost.
        overhead = DISPATCH_OVERHEAD_SECONDS
        assist = config.cpu_assist
        self.warm_total = [
            (p.warm_service_s + overhead) if p else 0.0
            for p in self.profiles
        ]
        self.cold_total = [
            (
                p.cold_service_s + overhead
                - (
                    (p.analysis_s - CPU_ASSIST_ROUNDTRIP_SECONDS)
                    if assist else 0.0
                )
            ) if p else 0.0
            for p in self.profiles
        ]
        self.gpu_warm_total = [
            (p.gpu_warm_service_s + overhead) if p else 0.0
            for p in self.profiles
        ]
        self.gpu_cold_total = [
            (
                p.gpu_cold_service_s + overhead
                - (
                    (p.analysis_s - CPU_ASSIST_ROUNDTRIP_SECONDS)
                    if assist else 0.0
                )
            ) if p else 0.0
            for p in self.profiles
        ]
        self.swap_s = [
            p.solver_swap_s if p else 0.0 for p in self.profiles
        ]
        self.transfer_s = [
            p.gpu_transfer_s if p else 0.0 for p in self.profiles
        ]
        self.signatures = [
            p.plan_signature if p else "" for p in self.profiles
        ]
        # Placement is decided once per source from the *cluster-wide*
        # tenancy mix (every fleet shares the config), so routing and
        # scaling never change a source's device class mid-run.
        self.placements: list[PlacementDecision | None] = [
            decide_placement(
                p,
                fpga_slots=config.slots_per_fleet,
                gpu_tenants=config.gpu_tenants_per_fleet,
                max_batch=config.max_batch,
            ) if p else None
            for p in self.profiles
        ]
        self.placed_class = [
            d.device_class if d else FPGA for d in self.placements
        ]
        self.ring = HashRing(vnodes=config.vnodes)
        self.route_map = np.full(self.n_sources, -1, dtype=np.int64)
        self.fleets: dict[int, FleetState] = {}
        self.next_fleet_id = 0
        # The simulation's only read of ``cache_capacity``: the DSE
        # shares one run across capacities at or above the number of
        # distinct fingerprints, since a local tier then never evicts.
        self.cache = TieredPlanCache(
            local_capacity=config.cache_capacity,
            remote_fetch_s=config.remote_fetch_ms * 1e-3,
        )
        self.autoscaler = Autoscaler(config.policy)
        self.wheel = TimerWheel()
        self.counts = {
            "completed": 0,
            "failed": 0,
            "shed_overflow": 0,
            "shed_drain_limit": 0,
            "expired": 0,
            "routed": 0,
            "remapped": 0,
            "ring_rebuilds": 0,
            "peak_fleets": 0,
            "fleet_outages": 0,
            "forced_scale": 0,
            "cpu_assist_offloads": 0,
        }
        n = len(trace)
        # Latency bookkeeping is deferred: the dispatch loop records one
        # (first_finish, step, size) triple per batch plus each member's
        # trace index and arrival, and :meth:`latencies_s` materializes
        # the per-request latencies in a few vectorized passes at the
        # end.  Arrivals are copied per batch (cheap contiguous slices)
        # so the finalize pass never gathers 10⁷+ random indices.
        self.lat_idx = np.empty(n, dtype=np.int32)
        self.lat_arrival = np.empty(n, dtype=np.float64)
        self.lat_count = 0
        self.batch_first: list[float] = []
        self.batch_step: list[float] = []
        self.batch_size: list[int] = []
        self.queue_depth_samples: list[int] = []
        self.horizon_s = 0.0
        # per-epoch signal accumulators
        self._epoch_arrivals = 0
        self._epoch_shed = 0
        self._prev_lookups = 0
        self._prev_local_hits = 0

    # -- membership ----------------------------------------------------

    def _routing_fleets(self) -> list[int]:
        """Fleets taking new traffic, in id order (ring membership)."""
        return sorted(
            f.fleet_id
            for f in self.fleets.values()
            if f.alive and not f.draining and f.faulted_until is None
        )

    def _fallback_fleets(self) -> list[int]:
        """Last-resort routing targets when the ring is empty."""
        targets = sorted(
            f.fleet_id
            for f in self.fleets.values()
            if f.alive and not f.draining
        )
        if targets:
            return targets
        return sorted(
            f.fleet_id for f in self.fleets.values() if f.alive
        )

    def _rebuild_routes(self) -> None:
        new_map = np.full(self.n_sources, -1, dtype=np.int64)
        if len(self.ring):
            for src in range(self.n_sources):
                if not self.failed_source[src]:
                    new_map[src] = self.ring.owner(self.fingerprints[src])
        moved = np.count_nonzero(
            (self.route_map != -1)
            & (new_map != -1)
            & (self.route_map != new_map)
        )
        self.counts["remapped"] += int(moved)
        self.counts["ring_rebuilds"] += 1
        self.route_map = new_map

    def _add_fleet(self, at_s: float) -> FleetState:
        # Per-device-class scaling bound: a new fleet's GPU tenancy is
        # clamped so the cluster never holds more than
        # ``max_gpu_tenants`` across alive fleets (the FPGA side scales
        # with ``max_fleets`` as before).  A fleet with no FPGA slots
        # keeps one tenant regardless — an empty fleet can serve
        # nothing, and the bound still caps everything above the floor.
        tenants = self.config.gpu_tenants_per_fleet
        if self.config.max_gpu_tenants is not None:
            existing = sum(
                f.gpu_tenants for f in self.fleets.values() if f.alive
            )
            tenants = min(
                tenants, max(0, self.config.max_gpu_tenants - existing)
            )
            if self.config.slots_per_fleet == 0:
                tenants = max(1, tenants)
        fleet = FleetState(
            self.next_fleet_id,
            self.config.slots_per_fleet,
            at_s,
            gpu_tenants=tenants,
        )
        self.next_fleet_id += 1
        self.fleets[fleet.fleet_id] = fleet
        self.cache.attach_fleet(fleet.fleet_id)
        self.ring.add(fleet.fleet_id)
        self._rebuild_routes()
        alive = len(self._routing_fleets())
        self.counts["peak_fleets"] = max(self.counts["peak_fleets"], alive)
        return fleet

    def _drain_fleet(self, at_s: float) -> FleetState | None:
        candidates = [
            f for f in self.fleets.values()
            if f.alive and not f.draining
        ]
        if len(candidates) <= self.config.min_fleets:
            return None
        # Smallest backlog loses; ties drain the youngest (highest id).
        victim = min(
            candidates, key=lambda f: (f.backlog, -f.fleet_id)
        )
        victim.drained_s = at_s
        self.ring.remove(victim.fleet_id)
        self._rebuild_routes()
        return victim

    def _retire_idle(self, at_s: float) -> int:
        retired = 0
        for fleet in self.fleets.values():
            if (
                fleet.alive
                and fleet.draining
                and fleet.backlog == 0
                and max(fleet.slot_free) <= at_s
            ):
                fleet.alive = False
                fleet.retired_s = at_s
                self.cache.detach_fleet(fleet.fleet_id)
                retired += 1
        return retired

    # -- chaos events --------------------------------------------------

    def _apply_fault(self, event: Any) -> None:
        targets = sorted(
            f.fleet_id for f in self.fleets.values() if f.alive
        )
        if not targets:
            return
        fleet = self.fleets[
            targets[event.fleet_ordinal % len(targets)]
        ]
        recover_at = round(event.at_s + event.outage_s, 9)
        fleet.outages += 1
        fleet.faulted_until = recover_at
        fleet.slot_free = [
            free if free > recover_at else recover_at
            for free in fleet.slot_free
        ]
        fleet.slot_resident = [""] * fleet.slots
        self.counts["fleet_outages"] += 1
        if fleet.fleet_id in self.ring:
            self.ring.remove(fleet.fleet_id)
            self._rebuild_routes()
        self.wheel.schedule(
            recover_at, EVENT_FLEET_RECOVER, fleet.fleet_id
        )

    def _apply_recover(self, fleet_id: int) -> None:
        fleet = self.fleets.get(fleet_id)
        if fleet is None or not fleet.alive:
            return
        fleet.faulted_until = None
        if not fleet.draining and fleet_id not in self.ring:
            self.ring.add(fleet_id)
            self._rebuild_routes()

    def _apply_forced_scale(self, event: ForcedScaleEvent) -> None:
        if event.action == "add":
            alive = len(
                [f for f in self.fleets.values()
                 if f.alive and not f.draining]
            )
            if alive < self.config.max_fleets:
                self._add_fleet(event.at_s)
                self.counts["forced_scale"] += 1
        else:
            if self._drain_fleet(event.at_s) is not None:
                self.counts["forced_scale"] += 1

    def _apply_event(self, event: Any) -> None:
        if event.kind == EVENT_FLEET_FAULT:
            self._apply_fault(event.payload)
        elif event.kind == EVENT_FLEET_RECOVER:
            self._apply_recover(event.payload)
        elif event.kind == EVENT_FORCED_SCALE:
            self._apply_forced_scale(event.payload)

    # -- admission and expiry ------------------------------------------

    def _admit(self, new_idx: np.ndarray, at_s: float) -> None:
        if new_idx.shape[0] == 0:
            return
        trace = self.trace
        self._epoch_arrivals += int(new_idx.shape[0])
        src = trace.source_idx[new_idx].astype(np.int64)
        failed = self.failed_source[src]
        n_failed = int(np.count_nonzero(failed))
        if n_failed:
            self.counts["failed"] += n_failed
            new_idx = new_idx[~failed]
            src = src[~failed]
        if new_idx.shape[0] == 0:
            return
        self.counts["routed"] += int(new_idx.shape[0])
        if self.config.affinity_routing and len(self.ring):
            fleet_ids = self.route_map[src]
        else:
            targets = np.array(
                self._routing_fleets() or self._fallback_fleets(),
                dtype=np.int64,
            )
            fleet_ids = targets[new_idx % targets.shape[0]]
        order = np.argsort(fleet_ids, kind="stable")
        fleet_sorted = fleet_ids[order]
        idx_sorted = new_idx[order]
        src_sorted = src[order]
        cuts = np.flatnonzero(np.diff(fleet_sorted)) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [fleet_sorted.shape[0]]))
        for lo, hi in zip(starts, stops):
            fleet = self.fleets[int(fleet_sorted[lo])]
            chunk_idx = idx_sorted[lo:hi]
            chunk_src = src_sorted[lo:hi]
            room = self.config.queue_capacity - fleet.backlog
            if room < chunk_idx.shape[0]:
                room = max(room, 0)
                # Tail-drop: arrivals are time-ordered within the
                # chunk, so the newest overflow is what gets shed.
                arrival_order = np.argsort(
                    self.trace.arrival_s[chunk_idx], kind="stable"
                )
                keep = np.sort(arrival_order[:room])
                shed = chunk_idx.shape[0] - room
                self.counts["shed_overflow"] += int(shed)
                self._epoch_shed += int(shed)
                chunk_idx = chunk_idx[keep]
                chunk_src = chunk_src[keep]
            if chunk_idx.shape[0] == 0:
                continue
            fleet.last_routed_s = at_s
            fleet.backlog += int(chunk_idx.shape[0])
            src_order = np.argsort(chunk_src, kind="stable")
            by_src = chunk_src[src_order]
            by_idx = chunk_idx[src_order]
            src_cuts = np.flatnonzero(np.diff(by_src)) + 1
            src_starts = np.concatenate(([0], src_cuts))
            src_stops = np.concatenate((src_cuts, [by_src.shape[0]]))
            for slo, shi in zip(src_starts, src_stops):
                source = int(by_src[slo])
                fresh = by_idx[slo:shi]
                queue = fleet.queues.get(source)
                if queue is None:
                    fleet.queues[source] = [
                        fresh,
                        self.trace.arrival_s[fresh],
                        0,
                    ]
                else:
                    idx_arr, arr_arr, ptr = queue
                    queue[0] = np.concatenate((idx_arr[ptr:], fresh))
                    queue[1] = np.concatenate(
                        (arr_arr[ptr:], self.trace.arrival_s[fresh])
                    )
                    queue[2] = 0

    def _expire(self, at_s: float) -> None:
        deadline = self.trace.deadline_s
        for fleet in self.fleets.values():
            if not fleet.alive or fleet.backlog == 0:
                continue
            dead_sources = []
            for source, queue in fleet.queues.items():
                idx_arr, arr_arr, ptr = queue
                live_idx = idx_arr[ptr:]
                lapsed = deadline[live_idx] <= at_s
                n_lapsed = int(np.count_nonzero(lapsed))
                if not n_lapsed:
                    continue
                self.counts["expired"] += n_lapsed
                self._epoch_shed += n_lapsed
                fleet.backlog -= n_lapsed
                keep = ~lapsed
                queue[0] = live_idx[keep]
                queue[1] = arr_arr[ptr:][keep]
                queue[2] = 0
                if queue[0].shape[0] == 0:
                    dead_sources.append(source)
            for source in dead_sources:
                del fleet.queues[source]

    # -- dispatch ------------------------------------------------------

    def _dispatch_fleet(
        self, fleet: FleetState, t1: float
    ) -> None:
        """Serve one fleet's queues up to epoch boundary ``t1``.

        This is the simulation's only per-batch Python loop; every
        quantity it touches is a scalar or a small-slice vector write.
        A batch departs at ``max(slot_free, head_arrival + fill)`` — the
        fill window is what lets batches reach ``max_batch`` under load
        instead of degenerating to one request per iteration — and
        carries every queued request of its source that has arrived by
        the departure time.
        """
        if fleet.backlog == 0:
            return
        queues = fleet.queues
        heap: list[tuple[float, int]] = []
        for source, queue in queues.items():
            if queue[0].shape[0] > queue[2]:
                heap.append((float(queue[1][queue[2]]), source))
        if not heap:
            return
        heapq.heapify(heap)
        slot_free = fleet.slot_free
        residents = fleet.slot_resident
        max_batch = self.config.max_batch
        fill = self.config.batch_fill_ms * 1e-3
        fleet_id = fleet.fleet_id
        assist = self.config.cpu_assist
        lookup = self.cache.lookup
        lat_idx = self.lat_idx
        lat_arrival = self.lat_arrival
        batch_first = self.batch_first
        batch_step = self.batch_step
        batch_size = self.batch_size
        counts = self.counts
        # A class's slot pool can saturate (no start before ``t1``)
        # while the other class still has room, so saturation is
        # tracked per class and the loop only stops when every class
        # the fleet tenants is saturated.
        saturated_fpga = False
        saturated_gpu = False
        while heap and min(slot_free) < t1:
            head_arrival, source = heapq.heappop(heap)
            queue = queues[source]
            idx_arr, arr_arr, ptr = queue
            signature = self.signatures[source]
            lo, hi = fleet.slot_range(self.placed_class[source])
            on_gpu = lo >= fleet.fpga_slots
            if saturated_gpu if on_gpu else saturated_fpga:
                continue
            # Pick the slot with the earliest achievable start; among
            # equal starts prefer a resident-matching slot (same modeled
            # start, one config load saved), then the lowest index.
            ready = head_arrival + fill
            start = float("inf")
            slot = lo
            for index in range(lo, hi):
                free = slot_free[index]
                candidate = free if free > ready else ready
                if candidate < start or (
                    candidate == start
                    and residents[index] == signature
                    and residents[slot] != signature
                ):
                    start = candidate
                    slot = index
            # Leftovers carry to the next epoch once no slot of the
            # class can start inside this one.  Sources later in the
            # heap have later heads, so their starts are no earlier:
            # safe to mark the class saturated.  (Deferred sources keep
            # their queue pointer, so the next epoch re-heaps them.)
            if start >= t1:
                if on_gpu:
                    saturated_gpu = True
                else:
                    saturated_fpga = True
                if (saturated_fpga or fleet.fpga_slots == 0) and (
                    saturated_gpu or fleet.gpu_tenants == 0
                ):
                    break
                continue
            ripe = int(arr_arr.searchsorted(start, side="right")) - ptr
            k = ripe if ripe < max_batch else max_batch
            fingerprint = self.fingerprints[source]
            tier, tier_charge = lookup(fleet_id, fingerprint)
            if tier == MISS:
                first_total = (
                    self.gpu_cold_total[source] if on_gpu
                    else self.cold_total[source]
                )
                self.cache.publish(fleet_id, fingerprint)
                if assist:
                    counts["cpu_assist_offloads"] += 1
            else:
                first_total = (
                    self.gpu_warm_total[source] if on_gpu
                    else self.warm_total[source]
                )
            base = start + tier_charge
            if residents[slot] != signature:
                if on_gpu:
                    base += self.transfer_s[source]
                    fleet.gpu_transfers += 1
                else:
                    base += self.swap_s[source]
                    fleet.config_loads += 1
                residents[slot] = signature
            step = (
                self.gpu_warm_total[source] if on_gpu
                else self.warm_total[source]
            )
            first_finish = base + first_total
            end = first_finish + step * (k - 1)
            slot_free[slot] = end
            fleet.busy_seconds += end - start
            fleet.batches += 1
            if on_gpu:
                fleet.gpu_batches += 1
            fleet.batch_members += k
            if k > fleet.max_batch_size:
                fleet.max_batch_size = k
            fleet.completed += k
            fleet.backlog -= k
            counts["completed"] += k
            c = self.lat_count
            stop = ptr + k
            lat_idx[c:c + k] = idx_arr[ptr:stop]
            lat_arrival[c:c + k] = arr_arr[ptr:stop]
            batch_first.append(first_finish)
            batch_step.append(step)
            batch_size.append(k)
            self.lat_count = c + k
            if end > self.horizon_s:
                self.horizon_s = end
            queue[2] = stop
            if idx_arr.shape[0] > stop:
                heapq.heappush(heap, (float(arr_arr[stop]), source))
            else:
                del queues[source]

    def latencies_s(self) -> np.ndarray:
        """Materialize per-request latencies from per-batch records.

        Request ``i`` of a batch finishes at ``first_finish + step * i``
        and its latency is that finish minus its arrival; doing this
        once over all batches replaces millions of small-slice array
        operations in the dispatch loop with three vectorized passes.
        """
        c = self.lat_count
        if c == 0:
            return np.empty(0, dtype=np.float64)
        sizes = np.asarray(self.batch_size, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        first = np.asarray(self.batch_first)
        step = np.asarray(self.batch_step)
        # Element ``i`` of batch ``j`` (at local offset ``m``) has
        # latency ``first_j + step_j * m - arrival_i``.  Both piecewise
        # terms are expanded with scatter-then-cumsum instead of
        # ``np.repeat`` so the whole pass allocates exactly one
        # population-sized buffer (large allocations dominate the
        # finalize on memory-constrained hosts); ``lat_arrival`` is
        # consumed as in-place scratch for the ramp term.
        out = np.zeros(c, dtype=np.float64)
        out[starts] = np.diff(first, prepend=0.0)
        np.cumsum(out, out=out)
        out -= self.lat_arrival[:c]
        scratch = self.lat_arrival[:c]
        scratch[:] = 0.0
        scratch[starts] = np.diff(step, prepend=0.0)
        np.cumsum(scratch, out=scratch)  # step_j, expanded per element
        reset = np.empty_like(step)
        reset[0] = 0.0
        reset[1:] = step[:-1] * (1 - sizes[:-1])
        scratch[starts] = reset
        np.cumsum(scratch, out=scratch)  # step_j * m (local offset ramp)
        out += scratch
        return out

    # -- signals -------------------------------------------------------

    def _signals(self, at_s: float, interval_s: float) -> IntervalSignals:
        alive = [f for f in self.fleets.values() if f.alive]
        depths = [float(f.backlog) for f in alive]
        busy_slot_s = 0.0
        slot_count = 0
        for fleet in alive:
            busy_slot_s += sum(
                min(max(free - at_s, 0.0), interval_s)
                for free in fleet.slot_free
            )
            slot_count += fleet.slots
        lookups = self.cache.stats.lookups
        local_hits = self.cache.stats.local_hits
        delta_lookups = lookups - self._prev_lookups
        delta_local = local_hits - self._prev_local_hits
        self._prev_lookups = lookups
        self._prev_local_hits = local_hits
        arrivals = self._epoch_arrivals
        shed = self._epoch_shed
        self._epoch_arrivals = 0
        self._epoch_shed = 0
        return IntervalSignals(
            at_s=at_s,
            queue_depth_p90=percentile(depths, 90.0),
            shed_rate=shed / arrivals if arrivals else 0.0,
            busy_fraction=(
                busy_slot_s / (slot_count * interval_s)
                if slot_count else 0.0
            ),
            local_hit_rate=(
                delta_local / delta_lookups if delta_lookups else 0.0
            ),
        )

    # -- main loop -----------------------------------------------------

    def total_backlog(self) -> int:
        return sum(f.backlog for f in self.fleets.values() if f.alive)

    def _shed_survivors(self) -> None:
        for fleet in self.fleets.values():
            if not fleet.alive or fleet.backlog == 0:
                continue
            self.counts["shed_drain_limit"] += fleet.backlog
            fleet.backlog = 0
            fleet.queues = {}

    def run(self, duration_s: float) -> None:
        config = self.config
        interval = config.interval_s
        drain_limit = duration_s * DRAIN_LIMIT_FACTOR
        for _ in range(config.initial_fleets):
            self._add_fleet(0.0)
        # Owner changes while the initial fleets join move no routed
        # traffic; remaps count from here on.
        self.counts["remapped"] = 0
        for fault in config.fleet_faults:
            self.wheel.schedule(fault.at_s, EVENT_FLEET_FAULT, fault)
        for forced in config.forced_scale:
            self.wheel.schedule(forced.at_s, EVENT_FORCED_SCALE, forced)
        self.wheel.schedule(0.0, EVENT_EPOCH, 0)
        arrivals = self.trace.arrival_s
        n = arrivals.shape[0]
        pointer = 0
        self.horizon_s = duration_s
        while self.wheel:
            event = self.wheel.pop()
            if event.kind != EVENT_EPOCH:
                self._apply_event(event)
                continue
            epoch = int(event.payload)
            t0 = event.at_s
            t1 = round((epoch + 1) * interval, 9)
            self._retire_idle(t0)
            self._expire(t0)
            hi = int(np.searchsorted(arrivals, t1, side="left"))
            self._admit(np.arange(pointer, hi, dtype=np.int64), t0)
            pointer = hi
            for fleet_id in sorted(self.fleets):
                fleet = self.fleets[fleet_id]
                if fleet.alive:
                    self._dispatch_fleet(fleet, t1)
            self.queue_depth_samples.append(self.total_backlog())
            signals = self._signals(t1, interval)
            if config.autoscale and t1 <= duration_s:
                alive = len(
                    [f for f in self.fleets.values()
                     if f.alive and not f.draining]
                )
                decision = self.autoscaler.evaluate(
                    signals,
                    alive,
                    config.min_fleets,
                    config.max_fleets,
                )
                if decision.action is ScaleAction.ADD:
                    self._add_fleet(t1)
                elif decision.action is ScaleAction.DRAIN:
                    self._drain_fleet(t1)
            if pointer < n or self.total_backlog() > 0:
                if t1 > drain_limit:
                    self._shed_survivors()
                else:
                    self.wheel.schedule(t1, EVENT_EPOCH, epoch + 1)
        self._retire_idle(self.horizon_s)

    def flush_counters(self) -> None:
        """Publish run totals to the active telemetry collector.

        REP005 requires literal registered names at every call site, so
        the hot loop accumulates plain integers and this single flush
        translates them.
        """
        tm.count("cluster.requests", self.trace.arrival_s.shape[0])
        tm.count("cluster.completed", self.counts["completed"])
        tm.count("cluster.failed", self.counts["failed"])
        tm.count("cluster.shed.overflow", self.counts["shed_overflow"])
        tm.count(
            "cluster.shed.drain_limit", self.counts["shed_drain_limit"]
        )
        tm.count("cluster.expired", self.counts["expired"])
        tm.count(
            "cluster.batches",
            sum(f.batches for f in self.fleets.values()),
        )
        tm.count(
            "cluster.config_loads",
            sum(f.config_loads for f in self.fleets.values()),
        )
        if self.config.gpu_tenants_per_fleet > 0:
            gpu_batches = sum(
                f.gpu_batches for f in self.fleets.values()
            )
            tm.count(
                "placement.fpga_batches",
                sum(f.batches for f in self.fleets.values()) - gpu_batches,
            )
            tm.count("placement.gpu_batches", gpu_batches)
            tm.count(
                "gpu.transfers",
                sum(f.gpu_transfers for f in self.fleets.values()),
            )
        if self.config.cpu_assist:
            tm.count(
                "placement.cpu_assist_offloads",
                self.counts["cpu_assist_offloads"],
            )
        tm.count("router.routed", self.counts["routed"])
        tm.count("router.remapped", self.counts["remapped"])
        tm.count("router.ring_rebuilds", self.counts["ring_rebuilds"])
        tm.count("cache.tier.local_hits", self.cache.stats.local_hits)
        tm.count("cache.tier.remote_hits", self.cache.stats.remote_hits)
        tm.count("cache.tier.misses", self.cache.stats.misses)
        tm.count("cache.tier.evictions", self.cache.local_evictions())
        tm.count("cache.tier.publishes", self.cache.publishes)
        tm.count(
            "autoscale.evaluations", len(self.autoscaler.decisions)
        )
        tm.count(
            "autoscale.scale_ups",
            sum(
                1 for d in self.autoscaler.decisions
                if d.action is ScaleAction.ADD
            ),
        )
        tm.count(
            "autoscale.drains",
            sum(
                1 for d in self.autoscaler.decisions
                if d.action is ScaleAction.DRAIN
            ),
        )
        tm.count(
            "autoscale.holds",
            sum(
                1 for d in self.autoscaler.decisions
                if d.action is ScaleAction.HOLD
            ),
        )
        tm.count(
            "autoscale.retired",
            sum(
                1 for f in self.fleets.values()
                if f.retired_s is not None
            ),
        )
        tm.count(
            "faults.injected.fleet_outage", self.counts["fleet_outages"]
        )
        tm.count(
            "faults.injected.forced_scale", self.counts["forced_scale"]
        )


def run_cluster(
    trace: RequestTrace,
    config: ClusterConfig | None = None,
    acamar_config: AcamarConfig | None = None,
    profiles: "dict[str, SolveProfile | str] | None" = None,
) -> ClusterReport:
    """Simulate serving ``trace`` on a fleet cluster.

    ``profiles`` lets a caller inject pre-built source profiles (the
    design-space explorer memoizes them across points sharing an
    accelerator config); they must cover ``trace.sources`` and have been
    built with the same ``acamar_config`` a fresh
    :func:`~repro.serve.service.build_profiles` call would use, or the
    byte-determinism contract across callers is void.

    ``acamar_config`` is read only to build profiles when none are
    passed.  With ``profiles`` given, the run is a function of the
    trace, ``config`` and the profiles of ``trace.sources`` alone,
    which is what lets the design-space explorer simulate each distinct
    deployment once and share the run across its design points.
    """
    config = config if config is not None else ClusterConfig()
    acamar_config = (
        acamar_config if acamar_config is not None else AcamarConfig()
    )
    collector = Telemetry()
    with collector.activate():
        if profiles is None:
            profiles = build_profiles(
                list(trace.sources),
                acamar_config,
                workers=config.workers,
            )
        simulation = _ClusterSimulation(trace, config, profiles)
        duration = float(trace.meta.get("duration_s", 0.0))
        if duration <= 0.0 and len(trace):
            duration = float(trace.arrival_s[-1])
        simulation.run(duration)
        simulation.flush_counters()
    c = simulation.lat_count
    latencies = simulation.latencies_s()
    latencies *= 1e3  # seconds → milliseconds, in place
    priorities = trace.priority[simulation.lat_idx[:c]]
    return ClusterReport(
        config=config,
        meta=dict(trace.meta),
        generated=len(trace),
        latencies_ms=latencies,
        latency_priorities=priorities,
        counts=simulation.counts,
        fleets=[
            simulation.fleets[fid] for fid in sorted(simulation.fleets)
        ],
        autoscaler=simulation.autoscaler,
        cache=simulation.cache,
        wheel=simulation.wheel,
        horizon_s=simulation.horizon_s,
        queue_depth_samples=simulation.queue_depth_samples,
        counters=dict(collector.counters),
        placements={
            d.source: d for d in simulation.placements if d is not None
        },
        telemetry=collector,
    )


def run_cluster_loadtest(
    spec: LoadSpec,
    config: ClusterConfig | None = None,
    acamar_config: AcamarConfig | None = None,
    profiles: "dict[str, SolveProfile | str] | None" = None,
) -> ClusterReport:
    """Generate a synthetic cluster trace for ``spec`` and serve it."""
    from repro.serve.cluster.trace import generate_trace

    trace = generate_trace(spec)
    return run_cluster(trace, config, acamar_config, profiles=profiles)
