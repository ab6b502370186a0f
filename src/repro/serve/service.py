"""The serving simulator: admission → micro-batching → fleet, on a
virtual clock.

:func:`run_service` consumes a request log (usually from
:mod:`repro.serve.loadgen`) and produces a :class:`ServingReport`.  The
simulation is **discrete-event over scheduling ticks**: virtual time
advances in fixed quanta (``tick_ms``); each tick admits the arrivals it
covers, expires lapsed deadlines, and lets the scheduler place ripe
micro-batches on free fleet slots.  Ticks on which the queue is empty
and nothing arrives or faults are skipped in one step: nothing could
happen on them.  All latencies are simulated —
device compute from the FPGA cost model, analysis/configuration charges
from the profile constants — so a fixed request log yields a
byte-identical JSON report on every run, on every machine.

Real numerics still happen: every unique source is profiled once with a
true Acamar solve (dispatched through :mod:`repro.parallel` when
``workers > 1``), and its decision-loop outcome is what the simulator
replays.  Wall-clock quantities (profiling spans) live only in the
separate telemetry export, never in the deterministic report.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Sequence

from repro import telemetry as tm
from repro.campaign import estimate_cost
from repro.config import AcamarConfig, check_integer_fields
from repro.errors import ConfigurationError, ValidationError
from repro.fpga.multitenancy import FleetSpec
from repro.parallel import WorkItem, run_sharded
from repro.serve.admission import AdmissionController, AdmissionVerdict
from repro.serve.api import (
    PRIORITY_NAMES,
    Outcome,
    Priority,
    SolveRequest,
    SolveResponse,
)
from repro.serve.cache import PlanCache
from repro.serve.loadgen import LoadSpec
from repro.serve.profile import SharedSolves, SolveProfile, profile_items
from repro.serve.scheduler import DeviceFaultEvent, MicroBatchScheduler
from repro.serve.stats import format_latency_ms, latency_summary_ms
from repro.telemetry import Telemetry

SERVING_SCHEMA_VERSION = 1

DRAIN_LIMIT_FACTOR = 20.0
"""The simulator refuses to run past ``duration * factor`` draining a
queue that cannot empty; survivors are shed with an explicit response."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (defaults favor a small deployment)."""

    queue_capacity: int = 64
    max_batch: int = 8
    batch_window_ms: float = 1.0
    tick_ms: float = 0.5
    cache_enabled: bool = True
    cache_capacity: int = 256
    fleet: FleetSpec = field(default_factory=FleetSpec)
    workers: int = 1
    device_faults: tuple[DeviceFaultEvent, ...] = ()

    def __post_init__(self) -> None:
        check_integer_fields(self, (
            ("queue_capacity", 1), ("max_batch", 1), ("cache_capacity", 1),
            ("workers", 1),
        ))
        if not (math.isfinite(self.batch_window_ms)
                and self.batch_window_ms >= 0):
            raise ConfigurationError(
                "batch_window_ms must be a finite number >= 0, got "
                f"{self.batch_window_ms}"
            )
        if not (math.isfinite(self.tick_ms) and self.tick_ms > 0):
            raise ConfigurationError(
                f"tick_ms must be a finite number > 0, got {self.tick_ms}"
            )

    def as_dict(self) -> dict[str, Any]:
        fleet: dict[str, Any] = {
            "devices": self.fleet.devices,
            "slots_per_device": self.fleet.slots_per_device,
            "total_slots": self.fleet.total_slots,
        }
        # Tenancy-mix keys appear only on heterogeneous fleets so the
        # pure-FPGA config schema (and its committed goldens) stay
        # byte-identical.
        if self.fleet.gpu_tenants or self.fleet.cpu_assist:
            fleet["gpu_tenants"] = self.fleet.gpu_tenants
            fleet["cpu_assist"] = self.fleet.cpu_assist
        return {
            "queue_capacity": self.queue_capacity,
            "max_batch": self.max_batch,
            "batch_window_ms": self.batch_window_ms,
            "tick_ms": self.tick_ms,
            "cache_enabled": self.cache_enabled,
            "cache_capacity": self.cache_capacity,
            "fleet": fleet,
            "device_faults": len(self.device_faults),
        }


@dataclass
class ServingReport:
    """Everything one serving run produced, with a stable JSON form."""

    config: ServiceConfig
    requests: list[SolveRequest]
    responses: list[SolveResponse]
    queue_depth_samples: list[int]
    scheduler: MicroBatchScheduler
    admission: AdmissionController
    cache: PlanCache | None
    horizon_s: float
    counters: dict[str, int]
    telemetry: Telemetry = field(default_factory=Telemetry)
    meta: dict[str, Any] = field(default_factory=dict)

    # -- derived statistics -------------------------------------------

    def _by_outcome(self, outcome: Outcome) -> list[SolveResponse]:
        return [r for r in self.responses if r.outcome is outcome]

    @property
    def completed(self) -> list[SolveResponse]:
        return self._by_outcome(Outcome.COMPLETED)

    @property
    def shed_count(self) -> int:
        return len(self._by_outcome(Outcome.SHED))

    @property
    def expired_count(self) -> int:
        return len(self._by_outcome(Outcome.EXPIRED))

    @property
    def unaccounted(self) -> int:
        """Requests without a response — the invariant says zero."""
        return len(self.requests) - len(self.responses)

    @property
    def cache_hit_rate(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(r.cache_hit for r in done) / len(done)

    def latency_stats_ms(
        self, responses: Sequence[SolveResponse]
    ) -> dict[str, float]:
        return latency_summary_ms([r.latency_s * 1e3 for r in responses])

    def as_dict(self, include_responses: bool = True) -> dict[str, Any]:
        done = self.completed
        generated = len(self.requests)
        batch_sizes = [b.size for b in self.scheduler.batches]
        document: dict[str, Any] = {
            "schema_version": SERVING_SCHEMA_VERSION,
            "serving": {**self.meta, **self.config.as_dict()},
            "requests": {
                "generated": generated,
                "completed": len(done),
                "converged": sum(1 for r in done if r.converged),
                "failed": len(self._by_outcome(Outcome.FAILED)),
                "shed": self.shed_count,
                "expired": self.expired_count,
                "unaccounted": self.unaccounted,
                "shed_rate": round(
                    (self.shed_count + self.expired_count) / generated, 9
                ) if generated else 0.0,
            },
            "latency_ms": {
                "overall": self.latency_stats_ms(done),
                "by_priority": {
                    PRIORITY_NAMES[priority]: self.latency_stats_ms(
                        [r for r in done if r.priority is priority]
                    )
                    for priority in Priority
                },
            },
            "queue": {
                "max_depth": max(self.queue_depth_samples, default=0),
                "mean_depth": round(
                    sum(self.queue_depth_samples)
                    / len(self.queue_depth_samples),
                    9,
                ) if self.queue_depth_samples else 0.0,
                "shed_full": self.admission.shed_full,
                "shed_deadline": self.admission.shed_deadline,
                "preemptions": self.admission.preemptions,
            },
            "cache": {
                "enabled": self.cache is not None,
                "hit_rate": round(self.cache_hit_rate, 9),
                "entries": len(self.cache) if self.cache is not None else 0,
                "lookups": (
                    self.cache.stats.as_dict()
                    if self.cache is not None else None
                ),
            },
            "batches": {
                "count": len(batch_sizes),
                "mean_size": round(
                    sum(batch_sizes) / len(batch_sizes), 9
                ) if batch_sizes else 0.0,
                "max_size": max(batch_sizes, default=0),
                "cold": sum(1 for b in self.scheduler.batches if b.cold),
                "config_loads": sum(
                    s.config_loads for s in self.scheduler.slots
                ),
            },
            "fleet": {
                "total_slots": len(self.scheduler.slots),
                "horizon_s": round(self.horizon_s, 9),
                "busy_fraction": [
                    round(s.busy_seconds / self.horizon_s, 9)
                    if self.horizon_s else 0.0
                    for s in self.scheduler.slots
                ],
                "device_seconds": round(
                    sum(s.busy_seconds for s in self.scheduler.slots), 9
                ),
                "device_faults": sum(
                    s.outages for s in self.scheduler.slots
                ),
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if self.scheduler.fleet.gpu_tenants > 0:
            document["placement"] = self._placement_section()
            document["fleet"]["by_class"] = self._fleet_by_class()
        if include_responses:
            document["responses"] = [r.as_dict() for r in self.responses]
        return document

    def _placement_section(self) -> dict[str, Any]:
        """Per-source decisions plus the Table-II-style scenario matrix."""
        from repro.placement import placement_section

        decisions = {}
        for source, profile in self.scheduler.profiles.items():
            if isinstance(profile, str):
                continue
            decisions[source] = self.scheduler.placement_for(source)
        return placement_section(decisions)

    def _fleet_by_class(self) -> dict[str, Any]:
        """Busy-time and batch accounting split by device class."""
        section: dict[str, Any] = {}
        for slot in self.scheduler.slots:
            stats = section.setdefault(
                slot.device_class,
                {"slots": 0, "device_seconds": 0.0, "batches": 0,
                 "config_loads": 0},
            )
            stats["slots"] += 1
            stats["device_seconds"] += slot.busy_seconds
            stats["batches"] += slot.batches
            stats["config_loads"] += slot.config_loads
        for stats in section.values():
            stats["device_seconds"] = round(stats["device_seconds"], 9)
        return dict(sorted(section.items()))

    def to_json(self, include_responses: bool = True) -> str:
        return json.dumps(
            self.as_dict(include_responses=include_responses),
            indent=2,
            sort_keys=True,
        ) + "\n"

    def write_json(
        self, path: str | Path, include_responses: bool = True
    ) -> Path:
        path = Path(path)
        path.write_text(self.to_json(include_responses=include_responses))
        return path

    def write_response_log(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w") as fh:
            for response in self.responses:
                fh.write(json.dumps(response.as_dict(), sort_keys=True) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        doc = self.as_dict(include_responses=False)
        overall = doc["latency_ms"]["overall"]
        return [
            f"requests generated    : {doc['requests']['generated']}",
            f"completed / converged : {doc['requests']['completed']} / "
            f"{doc['requests']['converged']}",
            f"shed / expired        : {doc['requests']['shed']} / "
            f"{doc['requests']['expired']} "
            f"(shed rate {doc['requests']['shed_rate']:.1%})",
            f"latency p50 / p99     : {format_latency_ms(overall['p50'])} / "
            f"{format_latency_ms(overall['p99'])} ms",
            f"cache hit rate        : {doc['cache']['hit_rate']:.1%} "
            f"({doc['cache']['entries']} entries)",
            f"batches (mean size)   : {doc['batches']['count']} "
            f"({doc['batches']['mean_size']:.2f})",
            f"queue depth max/mean  : {doc['queue']['max_depth']} / "
            f"{doc['queue']['mean_depth']:.2f}",
            f"fleet device seconds  : {doc['fleet']['device_seconds']:.4f} "
            f"over {doc['fleet']['total_slots']} slots",
        ]


PROFILE_SEED = 1
"""The seed every source is resolved at for profiling, at both tiers."""


def build_profiles(
    sources: Sequence[str],
    config: AcamarConfig,
    workers: int = 1,
    solves: SharedSolves | None = None,
) -> dict[str, "SolveProfile | str"]:
    """Profile every unique source once (real solves, memoized).

    Profiling runs through :func:`repro.parallel.run_sharded` with
    :func:`profile_items` as the work function: serially for
    ``workers <= 1``, on a worker pool otherwise.  A profiling failure
    maps the source to its error string — requests for it will be
    answered with ``FAILED`` responses rather than sinking the run.
    Each item's telemetry is merged into the active collector, if any.

    ``solves`` shares resolved problems and real solves with other
    in-process calls that pass the same dict (see
    :func:`~repro.serve.profile.build_profile`): a source whose stored
    solve has the attempts ``config`` would run is priced from it under
    ``config``'s own plan.  A dict cannot cross a pool, so a call that
    passes ``solves`` profiles in this process whatever ``workers`` is.
    """
    unique = list(dict.fromkeys(sources))
    items = [
        WorkItem(
            index=index,
            source=source,
            seed=PROFILE_SEED,
            cost=estimate_cost(source),
            label=source,
        )
        for index, source in enumerate(unique)
    ]
    if solves is not None:
        results = profile_items(items, config, solves)
    else:
        results = run_sharded(
            items, config, workers, work_fn=profile_items
        ).results
    collector = tm.active()
    if collector is not None:
        for result in results:
            collector.merge(result.telemetry)
    return {
        source: result.entry if result.entry is not None else result.error
        for source, result in zip(unique, results)
    }


def run_loadtest(
    spec: LoadSpec,
    service_config: ServiceConfig | None = None,
    acamar_config: AcamarConfig | None = None,
) -> ServingReport:
    """Generate synthetic traffic for ``spec`` and serve it."""
    from repro.serve.loadgen import generate_requests

    requests = generate_requests(spec)
    meta = {
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "rate_rps": spec.rate_rps,
        "mix": spec.mix,
    }
    return run_service(
        requests, service_config, acamar_config, meta=meta
    )


def _check_requests(requests: Sequence[SolveRequest]) -> None:
    """Reject a log the tick loop cannot serve, in one pass.

    A NaN arrival is never admitted (and makes the drain limit NaN, so
    the loop never ends); an infinite arrival or deadline never comes.
    Duplicate ids would break the one-response-per-request accounting.
    """
    seen: set[int] = set()
    for request in requests:
        deadline = request.deadline_s
        if not math.isfinite(request.arrival_s) or (
            deadline is not None and not math.isfinite(deadline)
        ):
            raise ValidationError(
                f"request {request.request_id}: arrival_s and deadline_s "
                f"must be finite, got {request.arrival_s!r} and {deadline!r}"
            )
        if request.request_id in seen:
            raise ValidationError(f"duplicate request_id {request.request_id}")
        seen.add(request.request_id)


def _first_tick(t: float, step: int, tick: float) -> int:
    """The first step ``k >= step`` whose clock ``k * tick`` reaches ``t``.

    ``ceil(t / tick)`` lands on it or next to it; the corrections use the
    loop's own test, ``t <= k * tick``, so float rounding of the product
    cannot move an event to another tick.
    """
    k = max(step, math.ceil(t / tick))
    while k > step and t <= (k - 1) * tick:
        k -= 1
    while t > k * tick:
        k += 1
    return k


def run_service(
    requests: Sequence[SolveRequest],
    service_config: ServiceConfig | None = None,
    acamar_config: AcamarConfig | None = None,
    meta: dict[str, Any] | None = None,
) -> ServingReport:
    """Simulate serving ``requests``; every request gets one response.

    Raises :class:`~repro.errors.ValidationError` before any profiling
    when a time is not finite or a request id repeats.
    """
    service_config = (
        service_config if service_config is not None else ServiceConfig()
    )
    acamar_config = (
        acamar_config if acamar_config is not None else AcamarConfig()
    )
    requests = sorted(requests, key=attrgetter("arrival_s", "request_id"))
    _check_requests(requests)
    collector = Telemetry()
    with collector.activate():
        profiles = build_profiles(
            [r.source for r in requests],
            acamar_config,
            workers=service_config.workers,
        )
        cache = (
            PlanCache(capacity=service_config.cache_capacity)
            if service_config.cache_enabled
            else None
        )
        scheduler = MicroBatchScheduler(
            fleet=service_config.fleet,
            profiles=profiles,
            cache=cache,
            max_batch=service_config.max_batch,
            batch_window_s=service_config.batch_window_ms * 1e-3,
            device_faults=service_config.device_faults,
        )
        admission = AdmissionController(
            capacity=service_config.queue_capacity
        )
        responses: list[SolveResponse] = []
        queue_depth_samples: list[int] = []
        tick = service_config.tick_ms * 1e-3
        total = len(requests)
        arrivals = [request.arrival_s for request in requests]
        duration = arrivals[-1] if requests else 0.0
        drain_limit = max(duration, tick) * DRAIN_LIMIT_FACTOR
        offer = admission.offer
        sample = queue_depth_samples.append
        pointer = 0
        batch_id = 0
        now = 0.0
        step = 0
        while pointer < total or admission.queue:
            now = step * tick
            # 1. Admit (or shed) every arrival this tick covers, at its
            #    own arrival timestamp so deadline math stays exact.
            if pointer < total and arrivals[pointer] <= now:
                end = bisect.bisect_right(arrivals, now, pointer)
                tm.count("serve.requests", end - pointer)
                for request in requests[pointer:end]:
                    verdict, victim = offer(request, request.arrival_s)
                    if victim is not None:
                        responses.append(
                            SolveResponse(
                                request_id=victim.request.request_id,
                                source=victim.request.source,
                                outcome=Outcome.SHED,
                                priority=victim.request.priority,
                                arrival_s=victim.request.arrival_s,
                                finish_s=request.arrival_s,
                                detail="preempted: displaced by higher "
                                "priority",
                            )
                        )
                    if verdict is not AdmissionVerdict.ADMITTED:
                        responses.append(
                            SolveResponse(
                                request_id=request.request_id,
                                source=request.source,
                                outcome=Outcome.SHED,
                                priority=request.priority,
                                arrival_s=request.arrival_s,
                                finish_s=request.arrival_s,
                                detail=verdict.value,
                            )
                        )
                pointer = end
            # 2. Expire queued requests whose deadline lapsed.
            for lapsed in admission.expire(now):
                responses.append(
                    SolveResponse(
                        request_id=lapsed.request.request_id,
                        source=lapsed.request.source,
                        outcome=Outcome.EXPIRED,
                        priority=lapsed.request.priority,
                        arrival_s=lapsed.request.arrival_s,
                        finish_s=lapsed.request.deadline_s or now,
                        queue_s=(lapsed.request.deadline_s or now)
                        - lapsed.request.arrival_s,
                        detail="deadline expired in queue",
                    )
                )
            # 3. Dispatch ripe micro-batches onto free slots.
            batch_responses, queue, batch_id = scheduler.dispatch(
                admission.queue, now, batch_id
            )
            admission.queue = queue
            if batch_responses:
                responses.extend(batch_responses)
            sample(len(queue))
            step += 1
            if now > drain_limit and queue:
                for queued in queue:
                    responses.append(
                        SolveResponse(
                            request_id=queued.request.request_id,
                            source=queued.request.source,
                            outcome=Outcome.SHED,
                            priority=queued.request.priority,
                            arrival_s=queued.request.arrival_s,
                            finish_s=now,
                            detail="drain limit reached",
                        )
                    )
                    tm.count("serve.shed.drain_limit")
                admission.queue = []
                break
            # 4. On an empty queue nothing happens before the next arrival
            #    or device fault: jump to its tick, sampling zero depth
            #    for the ticks skipped.
            if not queue and pointer < total:
                until = arrivals[pointer]
                fault_s = scheduler.next_fault_s()
                if fault_s is not None and fault_s < until:
                    until = fault_s
                idle = _first_tick(until, step, tick) - step
                queue_depth_samples.extend([0] * idle)
                step += idle
        for response in responses:
            if response.outcome is Outcome.COMPLETED:
                tm.observe("serve.latency_ms", response.latency_s * 1e3)
    responses.sort(key=attrgetter("finish_s", "request_id"))
    horizon = max(
        [duration]
        + [slot.busy_until_s for slot in scheduler.slots]
        + [r.finish_s for r in responses]
    ) if (requests or responses) else 0.0
    return ServingReport(
        config=service_config,
        requests=list(requests),
        responses=responses,
        queue_depth_samples=queue_depth_samples,
        scheduler=scheduler,
        admission=admission,
        cache=cache,
        horizon_s=horizon,
        counters=dict(collector.counters),
        telemetry=collector,
        meta=dict(meta or {}),
    )
