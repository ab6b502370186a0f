"""End-to-end evaluation of one fleet design point.

Each (shape, traffic) pair is deployed through the real virtual-clock
cluster simulator — profiling, admission, routing, batching,
autoscaling and all — then priced with the FPGA area and fleet energy
models.  The result is one flat metrics record per point, carrying the
five frontier objectives (p99 latency, device-seconds, area-mm²,
reconfiguration rate, GFLOPS/W) plus the raw accounting they derive
from.

:func:`evaluate_items` has the campaign's ``(items, config) ->
list[ItemResult]`` worker shape, so :func:`run_sweep` fans a whole
space out over :func:`repro.parallel.run_sharded` — pool restarts,
fault isolation and ordered reassembly included — while staying
byte-deterministic for any worker count: the virtual clock inside each
point never observes the pool, and results are reassembled in point
order.

Two memos keep the sweep from repeating work its points share:

- **The sweep memo.**  Each :func:`evaluate_items` call builds one
  :class:`SweepMemo` and evaluates every point of its chunk against it.
  It holds the cluster traces, one per distinct ``LoadSpec`` (traffic
  regime, seed, sources), handed read-only to every point that uses
  it; the cluster runs, one per distinct deployment
  (:func:`_deployment_key`), each pricing every point of that
  deployment — points that differ only in axes the run provably never
  reads (a solver mix that leaves every profile equal, a cache capacity
  no smaller than the number of structures) share one simulation; and
  per source and seed the resolved problem with the real
  ``Acamar.solve`` results its profiles ran, per
  :func:`~repro.core.accelerator.numerics_key`.  The unroll budget only
  changes the plan, and a solver mix is read only after a failed first
  attempt, so a profile whose attempts provably repeat a stored solve
  is priced from it under its own plan and cost model (see
  :func:`repro.serve.profile.build_profile`).  The memo lives only for
  its call, so every sweep pays for its own traces, simulations and
  solves, and nothing outlives it: a module-level memo would keep an
  hour-long 10k-rps trace (~680 MB) for the life of the process.  A
  point evaluated alone (:func:`evaluate_point` without ``memo``) runs
  the same code against an empty memo.
- **Profiles.** :data:`_PROFILE_MEMO` keeps cold profiles per
  (sources, Acamar config) key for the life of the worker process, so
  a sweep builds each profile once per worker, not once per point.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping, Sequence

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.dse.space import (
    SOLVER_MIXES,
    DesignSpace,
    FleetShape,
    TrafficSpec,
    point_id,
)
from repro.errors import ConfigurationError
from repro.fpga.cost_model import PerformanceModel
from repro.fpga.device import ALVEO_U55C, FPGADevice
from repro.fpga.energy import EnergyModel
from repro.parallel import ItemResult, WorkItem, isolated, run_sharded
from repro.placement import GPU_TENANT_AREA_MM2
from repro.serve import (
    ClusterConfig,
    LoadSpec,
    SolveProfile,
    build_profiles,
    generate_trace,
    run_cluster,
)
from repro.serve.cluster import RequestTrace
from repro.serve.loadgen import source_weights, validate_seed
from repro.serve.profile import SharedSolves
from repro.telemetry import Telemetry

SLOT_AREA_HEADROOM = 2.0
"""A deployed slot is floorplanned at twice its maximum SpMV region —
a 2x partial-region budget reserved for in-flight reconfiguration."""

_PROFILE_MEMO: dict[str, dict[str, "SolveProfile | str"]] = {}
"""Per-process cold-profile cache keyed by the sources and every field
of the Acamar config.  Shapes differing only in serving knobs (cache,
queue, fleet bounds, slot count) share one entry."""


def _profile_key(sources: Sequence[str], acamar: AcamarConfig) -> str:
    return json.dumps(
        {"sources": list(sources), "acamar": acamar.to_dict()},
        sort_keys=True,
    )


def _profiles_for(
    sources: Sequence[str],
    acamar: AcamarConfig,
    solves: SharedSolves,
) -> dict[str, "SolveProfile | str"]:
    key = _profile_key(sources, acamar)
    if key not in _PROFILE_MEMO:
        stored = sum(len(solved) for _, solved in solves.values())
        _PROFILE_MEMO[key] = build_profiles(
            list(sources), acamar, solves=solves
        )
        # Every real solve stores exactly one entry; a reused solve
        # stores none.
        gained = sum(len(solved) for _, solved in solves.values()) - stored
        tm.count("dse.profile_solves", gained)
    return _PROFILE_MEMO[key]


def acamar_config_for(
    shape: FleetShape, base_config: AcamarConfig | None = None
) -> AcamarConfig:
    """The per-slot Acamar configuration a shape deploys."""
    base = base_config if base_config is not None else AcamarConfig()
    return base.with_overrides(
        max_unroll=shape.max_unroll,
        solver_fallback_order=SOLVER_MIXES[shape.solver_mix],
    )


def load_spec_for(
    traffic: TrafficSpec, sources: Sequence[str], seed: int
) -> LoadSpec:
    """The cluster traffic one regime generates for a sweep seed."""
    return LoadSpec(
        seed=seed,
        duration_s=traffic.duration_s,
        rate_rps=traffic.rate_rps,
        mix=traffic.mix,
        deadline_ms=traffic.deadline_ms,
        sources=tuple(sources),
    )


def cluster_config_for(shape: FleetShape) -> ClusterConfig:
    """The cluster-tier deployment a shape describes."""
    return ClusterConfig(
        initial_fleets=shape.min_fleets,
        min_fleets=shape.min_fleets,
        max_fleets=shape.max_fleets,
        slots_per_fleet=shape.slots_per_fleet,
        gpu_tenants_per_fleet=shape.gpu_tenants,
        cpu_assist=shape.cpu_assist,
        cache_capacity=shape.cache_capacity,
        queue_capacity=shape.queue_capacity,
        autoscale=shape.max_fleets > shape.min_fleets,
        workers=1,
    )


def _modeled_flops_per_request(
    traffic: TrafficSpec,
    sources: Sequence[str],
    profiles: Mapping[str, "SolveProfile | str"],
) -> float:
    """Expected FLOPs of one served request under the traffic mix.

    2 FLOPs (multiply + add) per stored non-zero per iteration of the
    profiled solver sequence's final attempt, weighted by each source's
    arrival probability.  Sources whose profiling failed contribute
    zero — their requests are answered FAILED, not computed.
    """
    weights = source_weights(traffic.mix, len(sources))
    expected = 0.0
    for weight, source in zip(weights, sources):
        profile = profiles.get(source)
        if isinstance(profile, SolveProfile):
            expected += (
                float(weight) * 2.0 * profile.nnz * profile.iterations
            )
    return expected


_OUTCOME_SECTIONS = ("requests", "latency_ms", "fleets", "batches",
                     "placement")
"""The cluster report sections :func:`evaluate_point` prices from.  A
shared run keeps only these: the ``cluster`` and ``cache`` sections
echo the config, whose ``cache_capacity`` the deployment key clamps."""


def _deployment_key(
    spec: LoadSpec,
    trace: RequestTrace,
    config: ClusterConfig,
    profiles: Mapping[str, "SolveProfile | str"],
) -> Hashable:
    """Everything one cluster run reads, minus what cannot change it.

    ``run_cluster(trace, config, acamar, profiles=profiles)`` reads the
    trace, the config and the profiles of ``trace.sources``; it reads
    the Acamar config only to build profiles when none are passed, so
    that config stays out and solver mixes that profile alike share a
    run.  The trace enters as the spec it was generated from, and the
    profiles by value (a failed source is its error string).

    ``cache_capacity`` enters as ``min(cache_capacity, k)``, ``k`` the
    number of distinct fingerprints among the profiled sources (at
    least 1).  A local tier only ever holds entries with those
    fingerprints, so any capacity >= ``k`` never evicts and every such
    capacity gives the same run; nothing else in the simulation reads
    the capacity.
    """
    profiled = tuple(profiles.get(source) for source in trace.sources)
    structures = len({
        profile.fingerprint
        for profile in profiled
        if isinstance(profile, SolveProfile)
    })
    clamped = min(config.cache_capacity, max(1, structures))
    return spec, profiled, replace(config, cache_capacity=clamped)


def _simulate(
    trace: RequestTrace,
    config: ClusterConfig,
    acamar: AcamarConfig,
    profiles: dict[str, "SolveProfile | str"],
) -> dict[str, Any]:
    """Run one deployment; keep the :data:`_OUTCOME_SECTIONS` only."""
    tm.count("dse.simulations")
    doc = run_cluster(trace, config, acamar, profiles=profiles).as_dict()
    return {name: doc[name] for name in _OUTCOME_SECTIONS if name in doc}


@dataclass
class SweepMemo:
    """What the points of one sweep share (see the module docstring).

    ``traces`` maps a ``LoadSpec`` to its generated trace, ``runs`` a
    :func:`_deployment_key` to its cluster run's outcome sections, and
    ``solves`` a ``(source, seed)`` to its resolved problem and real
    solves.  A failed trace or run is never stored, so it fails only the
    points that need it.
    """

    traces: dict[LoadSpec, RequestTrace] = field(default_factory=dict)
    runs: dict[Hashable, dict[str, Any]] = field(default_factory=dict)
    solves: SharedSolves = field(default_factory=dict)


def evaluate_point(
    shape: FleetShape,
    traffic: TrafficSpec,
    sources: Sequence[str],
    seed: int,
    base_config: AcamarConfig | None = None,
    device: FPGADevice = ALVEO_U55C,
    memo: SweepMemo | None = None,
) -> dict[str, Any]:
    """Deploy one design point through the cluster simulator and price it.

    ``memo`` is what the points of one sweep share
    (:func:`evaluate_items` passes one per call): the point takes its
    trace, its cluster run and its sources' problems and solves from it
    where it holds them, and adds what it computes.  Without it the
    point gets an empty memo and runs the same code.  Either way the
    record is the same: pricing (area, energy, FLOPs, ids) is per
    point, and no two records share a mutable object.
    """
    memo = memo if memo is not None else SweepMemo()
    with tm.span("dse.point_eval"):
        acamar = acamar_config_for(shape, base_config)
        config = cluster_config_for(shape)
        profiles = _profiles_for(sources, acamar, memo.solves)
        spec = load_spec_for(traffic, sources, seed)
        if spec not in memo.traces:
            memo.traces[spec] = generate_trace(spec)
        trace = memo.traces[spec]
        key = _deployment_key(spec, trace, config, profiles)
        if key not in memo.runs:
            memo.runs[key] = _simulate(trace, config, acamar, profiles)
        doc = memo.runs[key]

        fleets = doc["fleets"]
        requests = doc["requests"]
        horizon_s = fleets["horizon_s"]
        config_loads = doc["batches"]["config_loads"]

        slot_area_mm2 = SLOT_AREA_HEADROOM * device.spmv_region_area_mm2(
            shape.max_unroll
        )
        # GPU tenants are priced at their MPS-partition die share, on
        # the same mm²-seconds axis as the FPGA regions.  The report's
        # provisioned_slot_seconds counts every dispatch slot, so the
        # tenant share is peeled off before the FPGA-area multiply.
        gpu_tenant_s = fleets.get("provisioned_gpu_tenant_seconds", 0.0)
        area_mm2 = fleets["peak"] * (
            shape.slots_per_fleet * slot_area_mm2
            + device.fixed_area_mm2
            + shape.gpu_tenants * GPU_TENANT_AREA_MM2
        )
        fabric_mm2_seconds = (
            (fleets["provisioned_slot_seconds"] - gpu_tenant_s)
            * slot_area_mm2
            + fleets["provisioned_fleet_seconds"] * device.fixed_area_mm2
            + gpu_tenant_s * GPU_TENANT_AREA_MM2
        )

        flops_per_request = _modeled_flops_per_request(
            traffic, sources, profiles
        )
        modeled_flops = flops_per_request * requests["completed"]
        swap_s = PerformanceModel(device).reconfig.solver_swap_seconds()
        energy = EnergyModel(device).fleet(
            modeled_flops=modeled_flops,
            slot_area_mm2=slot_area_mm2,
            provisioned_slot_seconds=fleets["provisioned_slot_seconds"],
            provisioned_fleet_seconds=fleets["provisioned_fleet_seconds"],
            config_loads=config_loads,
            config_load_seconds=swap_s,
        )

        metrics = {
            "p50_ms": doc["latency_ms"]["overall"]["p50"],
            "p99_ms": doc["latency_ms"]["overall"]["p99"],
            "generated": requests["generated"],
            "completed": requests["completed"],
            "failed": requests["failed"],
            "shed_rate": requests["shed_rate"],
            "unaccounted": requests["unaccounted"],
            "device_seconds": fleets["device_seconds"],
            "provisioned_slot_seconds": fleets["provisioned_slot_seconds"],
            "provisioned_fleet_seconds": fleets[
                "provisioned_fleet_seconds"
            ],
            "peak_fleets": fleets["peak"],
            "horizon_s": horizon_s,
            "config_loads": config_loads,
            "reconfig_rate_per_s": round(
                config_loads / horizon_s, 9
            ) if horizon_s > 0 else 0.0,
            "slot_area_mm2": round(slot_area_mm2, 9),
            "area_mm2": round(area_mm2, 9),
            "fabric_mm2_seconds": round(fabric_mm2_seconds, 9),
            "modeled_flops": round(modeled_flops, 3),
            "gflops_per_watt": energy.as_dict()["gflops_per_watt"],
            "energy_j": energy.as_dict(),
        }
        if shape.gpu_tenants > 0:
            metrics["gpu_batches"] = doc["batches"]["gpu_batches"]
            metrics["gpu_transfers"] = doc["batches"]["gpu_transfers"]
            metrics["provisioned_gpu_tenant_seconds"] = gpu_tenant_s
            metrics["placement_by_class"] = dict(
                doc["placement"]["by_class"]
            )
        return {
            "id": point_id(shape, traffic),
            "shape": shape.as_dict(),
            "traffic": traffic.as_dict(),
            "metrics": metrics,
        }


def _evaluate_item(
    item: WorkItem, config: AcamarConfig, memo: SweepMemo
) -> dict[str, Any]:
    shape, traffic, sources = item.source
    return evaluate_point(
        shape, traffic, sources, item.seed, config, memo=memo
    )


def evaluate_items(
    items: Sequence[WorkItem], config: AcamarConfig
) -> list[ItemResult]:
    """Worker entry point: evaluate a chunk of design points.

    Mirrors the campaign's ``solve_items`` contract so it can ride
    ``run_sharded`` unchanged: each item runs through
    :func:`repro.parallel.isolated`, labelled with its point id.
    ``item.source`` is the point's ``(shape, traffic, sources)``.  The
    chunk's points share one :class:`SweepMemo`, so a regime whose
    trace cannot be generated fails only its own points.
    """
    memo = SweepMemo()
    return [
        isolated(item, lambda: _evaluate_item(item, config, memo))
        for item in items
    ]


def run_sweep(
    space: DesignSpace,
    seed: int = 0,
    workers: int = 1,
    base_config: AcamarConfig | None = None,
    collector: Telemetry | None = None,
) -> list[ItemResult]:
    """Evaluate every point of ``space``, optionally over a worker pool.

    Returns one :class:`ItemResult` per point in declaration order
    regardless of ``workers`` — the pool only changes wall-clock time,
    never the records, so reports stay byte-identical per seed.  The
    run's telemetry goes to ``collector``; the report built from the
    records states how many points completed and failed.  A
    negative or non-integer ``seed`` and a ``workers`` below 1 raise
    :class:`~repro.errors.ConfigurationError` before any point runs.
    """
    validate_seed(seed)
    if (
        isinstance(workers, bool)
        or not isinstance(workers, numbers.Integral)
        or workers < 1
    ):
        raise ConfigurationError(
            f"workers must be an integer >= 1, got {workers!r}"
        )
    base = base_config if base_config is not None else AcamarConfig()
    items = [
        WorkItem(
            index=index,
            source=(shape, traffic, space.sources),
            seed=seed,
            cost=traffic.rate_rps * traffic.duration_s,
            label=point_id(shape, traffic),
        )
        for index, (shape, traffic) in enumerate(space.points())
    ]
    outcome = run_sharded(items, base, workers, work_fn=evaluate_items)
    if collector is not None:
        collector.merge(outcome.telemetry)
    return outcome.results
