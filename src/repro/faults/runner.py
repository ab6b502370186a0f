"""The chaos runner: inject faults, then audit the recovery contracts.

Each profile drives one recovery surface with the plan's schedule and
then checks the surface's *stated* failure-handling invariants — the
same contracts the operations docs promise:

- ``pool`` — every lost worker yields a structured ``WorkerLost``
  :class:`~repro.parallel.ItemResult`, campaign order is preserved,
  transiently-killed items recover via singleton resubmission, and the
  failure counters agree with the result records,
- ``serve`` — zero requests dropped without a shed (or expiry/failed)
  response, no duplicate responses, every non-completed response
  carries a reason, and device faults / storm pressure are visibly
  absorbed rather than silently ignored,
- ``solver`` — forced divergence walks the Solver Modifier's fallback
  chain without repeats, terminates (exhaustion included), reports the
  full attempt chain, and the ``solver_attempts.<name>`` counters match
  that chain exactly,
- ``cluster`` — every scheduled fleet outage lands and recovers,
  membership churn (flapping joins, an outage mid-drain) never loses a
  request (zero unaccounted), retired fleets drained cleanly, the
  tiered cache ladder stays consistent, and autoscaler actions respect
  the cooldown spacing the policy promises.

Violations are :class:`ChaosFinding` records rendered like
``repro lint`` findings; the CLI maps them onto the same 0/1/2 exit
contract.  A :class:`ChaosReport` contains **no wall-clock material**
(counters and structure only), so a fixed ``--chaos-seed`` renders
byte-identically on every run — the property the ``chaos-smoke`` CI
job pins.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.campaign import estimate_cost, solve_items
from repro.config import AcamarConfig
from repro.core import Acamar
from repro.datasets import dataset_keys, load_problem, poisson_2d
from repro.errors import UnknownNameError
from repro.parallel import WorkItem, run_sharded
from repro.parallel.engine import MAX_ITEM_ATTEMPTS
from repro.serve.api import Outcome
from repro.serve.cluster.autoscale import ScaleAction
from repro.serve.cluster.service import run_cluster_loadtest
from repro.serve.loadgen import LoadSpec
from repro.serve.service import run_loadtest, run_service
from repro.telemetry import Telemetry
from repro.faults.injectors import (
    ChaosExecutorFactory,
    ForcedDivergenceHook,
    chaos_cluster_config,
    chaos_placement_config,
    chaos_service_config,
    storm_requests,
)
from repro.faults.plan import CHAOS_PROFILES, FaultPlan

CHAOS_SCHEMA_VERSION = 1

# Profile workloads: small enough for a CI smoke job, large enough that
# every scheduled fault class actually lands on real work.
POOL_ITEM_COUNT = 8
POOL_WORKERS = 2
POOL_CHUNK_SIZE = 2
SERVE_DURATION_S = 0.8
SERVE_SLOTS = 3
SERVE_SOURCE_COUNT = 10
SOLVER_RECOVERY_GRIDS = (10, 16)
CLUSTER_DURATION_S = 8.0
CLUSTER_SOURCE_COUNT = 10
PLACEMENT_DURATION_S = 2.0
PLACEMENT_FPGA_SLOTS = 2
PLACEMENT_GPU_TENANTS = 2
PLACEMENT_SOURCES = ("Wi", "Ga", "Ns", "If")


@dataclass(frozen=True)
class ChaosFinding:
    """One violated recovery invariant (rendered lint-style)."""

    profile: str
    check: str
    message: str

    def render(self) -> str:
        return f"{self.profile}: {self.check} {self.message}"

    def as_dict(self) -> dict[str, str]:
        return {
            "profile": self.profile,
            "check": self.check,
            "message": self.message,
        }


@dataclass(frozen=True)
class ProfileOutcome:
    """One profile's reconciliation: injected vs. observed vs. findings."""

    profile: str
    injected: dict[str, int]
    observed: dict[str, Any]
    findings: tuple[ChaosFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "injected": dict(sorted(self.injected.items())),
            "observed": self.observed,
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run produced, with a stable JSON form."""

    chaos_seed: int
    profiles: tuple[ProfileOutcome, ...]

    @property
    def findings(self) -> tuple[ChaosFinding, ...]:
        return tuple(f for p in self.profiles for f in p.findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CHAOS_SCHEMA_VERSION,
            "chaos_seed": self.chaos_seed,
            "profiles": [p.as_dict() for p in self.profiles],
            "findings": len(self.findings),
            "clean": self.clean,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        for profile in self.profiles:
            injected = sum(profile.injected.values())
            lines.append(
                f"profile {profile.profile}: {injected} fault(s) injected, "
                f"{len(profile.findings)} violation(s)"
            )
        lines.append(
            f"{len(self.findings)} violation(s) across "
            f"{len(self.profiles)} profile(s) (chaos seed {self.chaos_seed})"
        )
        return "\n".join(lines)


def _injected(collector: Telemetry) -> dict[str, int]:
    return {
        name: value
        for name, value in collector.counters.items()
        if name.startswith("faults.injected.")
    }


# -- pool profile -------------------------------------------------------


def run_pool_profile(plan: FaultPlan) -> ProfileOutcome:
    """Worker-death / stall chaos against ``run_sharded``."""
    sources = dataset_keys()[:POOL_ITEM_COUNT]
    items = [
        WorkItem(
            index=index,
            source=source,
            seed=101 + index,
            cost=estimate_cost(source),
            label=source,
        )
        for index, source in enumerate(sources)
    ]
    schedule = plan.pool_schedule(
        len(items), max_item_attempts=MAX_ITEM_ATTEMPTS
    )
    factory = ChaosExecutorFactory(schedule)
    collector = Telemetry()
    with collector.activate():
        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=POOL_WORKERS,
            work_fn=solve_items,
            chunk_size=POOL_CHUNK_SIZE,
            executor_factory=factory,
        )

    findings: list[ChaosFinding] = []

    def violated(check: str, message: str) -> None:
        findings.append(ChaosFinding("pool", check, message))

    indices = [result.index for result in outcome.results]
    if indices != list(range(len(items))):
        violated(
            "CHS-POOL-ORDER",
            "campaign order not preserved or items missing: "
            f"got indices {indices}",
        )
    lost = [
        result
        for result in outcome.results
        if result.error is not None and result.error.startswith("WorkerLost")
    ]
    expected_lost = list(schedule.lethal_indices(MAX_ITEM_ATTEMPTS))
    if sorted(result.index for result in lost) != expected_lost:
        violated(
            "CHS-POOL-LOST",
            f"items {expected_lost} exhausted their worker-death budget "
            "but the WorkerLost results were "
            f"{sorted(r.index for r in lost)}",
        )
    for result in outcome.results:
        if result.entry is None and result.error is None:
            violated(
                "CHS-POOL-STRUCT",
                f"item {result.index} has neither entry nor error",
            )
        if result.index not in expected_lost and result.entry is None:
            violated(
                "CHS-POOL-RECOVER",
                f"item {result.index} should have recovered "
                f"(death budget {schedule.item_kills[result.index]}) but "
                f"reported: {result.error}",
            )
    merged = outcome.telemetry.counters
    error_count = sum(1 for r in outcome.results if r.error is not None)
    if merged.get("campaign.failures", 0) != error_count:
        violated(
            "CHS-POOL-PARITY",
            f"campaign.failures={merged.get('campaign.failures', 0)} but "
            f"{error_count} result(s) carry an error",
        )
    if merged.get("campaign.workers_lost", 0) != len(lost) or (
        outcome.abandoned_items != len(lost)
    ):
        violated(
            "CHS-POOL-PARITY",
            f"workers_lost counter {merged.get('campaign.workers_lost', 0)} "
            f"/ abandoned_items {outcome.abandoned_items} disagree with "
            f"{len(lost)} WorkerLost result(s)",
        )
    injected = _injected(collector)
    if injected.get("faults.injected.worker_death", 0) != schedule.total_kills:
        violated(
            "CHS-POOL-INJECT",
            f"scheduled {schedule.total_kills} worker death(s) but "
            f"{injected.get('faults.injected.worker_death', 0)} were "
            "consumed — the pool stopped retrying early",
        )
    expected_stalls = sum(
        1
        for index, stalled in enumerate(schedule.item_stalls)
        if stalled and index not in expected_lost
    )
    if injected.get("faults.injected.worker_stall", 0) != expected_stalls:
        violated(
            "CHS-POOL-INJECT",
            f"expected {expected_stalls} surviving stalled item(s) to "
            "execute, observed "
            f"{injected.get('faults.injected.worker_stall', 0)}",
        )

    observed = {
        "items": len(items),
        "item_kills": list(schedule.item_kills),
        "item_stalls": [int(s) for s in schedule.item_stalls],
        "entries": sum(1 for r in outcome.results if r.entry is not None),
        "worker_lost": sorted(r.index for r in lost),
        "pool_restarts": outcome.pool_restarts,
        "pools_created": factory.pools_created,
        "abandoned_items": outcome.abandoned_items,
        "counters": {
            name: merged[name]
            for name in ("campaign.failures", "campaign.workers_lost")
            if name in merged
        },
    }
    return ProfileOutcome("pool", injected, observed, tuple(findings))


# -- serve profile ------------------------------------------------------


def run_serve_profile(plan: FaultPlan) -> ProfileOutcome:
    """Burst / deadline-storm / cache-pressure / device-fault chaos."""
    schedule = plan.serve_schedule(
        duration_s=SERVE_DURATION_S, slots=SERVE_SLOTS
    )
    sources = dataset_keys()[:SERVE_SOURCE_COUNT]
    collector = Telemetry()
    with collector.activate():
        requests = storm_requests(
            schedule,
            seed=plan.seed,
            duration_s=SERVE_DURATION_S,
            sources=sources,
        )
        config = chaos_service_config(schedule, slots=SERVE_SLOTS)
        report = run_service(requests, config)

    findings: list[ChaosFinding] = []

    def violated(check: str, message: str) -> None:
        findings.append(ChaosFinding("serve", check, message))

    if report.unaccounted != 0:
        violated(
            "CHS-SERVE-ACCOUNT",
            f"{report.unaccounted} request(s) dropped without a response "
            "(shed/expiry accounting hole)",
        )
    request_ids = sorted(r.request_id for r in requests)
    response_ids = sorted(r.request_id for r in report.responses)
    if request_ids != response_ids:
        duplicates = [
            rid for rid, n in Counter(response_ids).items() if n > 1
        ]
        violated(
            "CHS-SERVE-IDS",
            "response ids do not match request ids "
            f"(duplicates: {duplicates})",
        )
    for response in report.responses:
        if response.outcome is not Outcome.COMPLETED and not response.detail:
            violated(
                "CHS-SERVE-DETAIL",
                f"request {response.request_id} ended "
                f"{response.outcome.value} with no reason",
            )
    if report.counters.get("serve.requests", 0) != len(requests):
        violated(
            "CHS-SERVE-COUNT",
            f"serve.requests={report.counters.get('serve.requests', 0)} "
            f"but {len(requests)} request(s) were offered",
        )
    applied_faults = sum(slot.outages for slot in report.scheduler.slots)
    if report.counters.get("serve.device_faults", 0) != applied_faults:
        violated(
            "CHS-SERVE-FAULTS",
            f"serve.device_faults counter "
            f"{report.counters.get('serve.device_faults', 0)} disagrees "
            f"with {applied_faults} slot outage(s)",
        )
    if applied_faults > len(schedule.device_faults):
        violated(
            "CHS-SERVE-FAULTS",
            f"{applied_faults} outage(s) applied but only "
            f"{len(schedule.device_faults)} were scheduled",
        )
    injected = _injected(collector)
    storm_count = injected.get("faults.injected.deadline_storm", 0)
    if storm_count == 0:
        violated(
            "CHS-SERVE-PRESSURE",
            "the deadline storm window covered no requests — the chaos "
            "schedule exerted no pressure",
        )
    evictions = (
        report.cache.stats.evictions if report.cache is not None else 0
    )
    if evictions == 0:
        violated(
            "CHS-SERVE-PRESSURE",
            "plan-cache capacity pressure produced zero evictions",
        )
    pressure_responses = report.shed_count + report.expired_count
    if storm_count and pressure_responses == 0:
        violated(
            "CHS-SERVE-PRESSURE",
            f"{storm_count} stormed deadline(s) produced no shed or "
            "expired response",
        )

    observed = report.as_dict(include_responses=False)
    return ProfileOutcome("serve", injected, observed, tuple(findings))


# -- solver profile -----------------------------------------------------


def _expected_chain(
    selection: str, fallback_order: Sequence[str]
) -> list[str]:
    chain = [selection]
    chain.extend(s for s in fallback_order if s != selection)
    return chain


def run_solver_profile(plan: FaultPlan) -> ProfileOutcome:
    """Forced-divergence chaos against the Acamar attempt loop.

    Case 0 (a Table II registry problem) carries the exhaustion budget —
    every configuration is forced to diverge and the Solver Modifier
    must walk the *entire* chain and stop.  The remaining cases are 2-D
    Poisson systems on which every fallback solver genuinely converges,
    so a recovery budget ``k`` must yield exactly ``k + 1`` attempts
    with a converged final result.
    """
    config = AcamarConfig()
    cases: list[tuple[str, Any]] = [
        ("registry:Wa", load_problem("Wa", seed=1))
    ]
    cases.extend(
        (f"poisson_2d({n})", poisson_2d(n)) for n in SOLVER_RECOVERY_GRIDS
    )
    schedule = plan.solver_schedule(len(cases))

    findings: list[ChaosFinding] = []

    def violated(check: str, message: str) -> None:
        findings.append(ChaosFinding("solver", check, message))

    injected: dict[str, int] = {}
    observed_cases: list[dict[str, Any]] = []
    for case_index, (label, problem) in enumerate(cases):
        budget = schedule.divergence_budgets[case_index]
        stall_marks = frozenset(schedule.stall_attempts[case_index])
        hook = ForcedDivergenceHook(budget=budget, stall_attempts=stall_marks)
        accelerator = Acamar(config, fault_hook=hook)
        case_collector = Telemetry()
        with case_collector.activate():
            result = accelerator.solve(problem.matrix, problem.b)
        sequence = list(result.solver_sequence)
        chain = _expected_chain(
            result.selection.solver, config.solver_fallback_order
        )
        prefix = f"case {label} (budget {budget}):"
        if len(sequence) > len(chain):
            violated(
                "CHS-SOLVER-TERM",
                f"{prefix} {len(sequence)} attempts exceed the "
                f"{len(chain)}-configuration chain — fallback did not "
                "terminate",
            )
        if len(set(sequence)) != len(sequence):
            violated(
                "CHS-SOLVER-REPEAT",
                f"{prefix} a solver was attempted twice: {sequence}",
            )
        if sequence != chain[: len(sequence)]:
            violated(
                "CHS-SOLVER-CHAIN",
                f"{prefix} attempt chain {sequence} is not a prefix of "
                f"the Modifier's preference order {chain}",
            )
        if hook.forced != sequence[: min(budget, len(sequence))]:
            violated(
                "CHS-SOLVER-CHAIN",
                f"{prefix} forced attempts {hook.forced} do not match "
                f"the reported chain {sequence}",
            )
        attempt_counts = {
            name.removeprefix("solver_attempts."): value
            for name, value in case_collector.counters.items()
            if name.startswith("solver_attempts.")
        }
        if attempt_counts != dict(Counter(sequence)):
            violated(
                "CHS-SOLVER-COUNT",
                f"{prefix} solver_attempts counters {attempt_counts} "
                f"disagree with the attempt chain {sequence}",
            )
        if budget >= len(chain):
            if result.converged or len(sequence) != len(chain):
                violated(
                    "CHS-SOLVER-EXHAUST",
                    f"{prefix} every configuration was forced to diverge "
                    f"yet the loop reported converged={result.converged} "
                    f"after {len(sequence)}/{len(chain)} attempts",
                )
        else:
            if not result.converged or len(sequence) != budget + 1:
                violated(
                    "CHS-SOLVER-RECOVER",
                    f"{prefix} expected convergence on attempt "
                    f"{budget + 1}, got converged={result.converged} "
                    f"after {len(sequence)} attempt(s)",
                )
        for name, value in _injected(case_collector).items():
            injected[name] = injected.get(name, 0) + value
        observed_cases.append(
            {
                "case": label,
                "budget": budget,
                "stall_attempts": sorted(stall_marks),
                "attempt_chain": sequence,
                "converged": result.converged,
                "solver_attempts": dict(sorted(attempt_counts.items())),
            }
        )

    observed = {"cases": observed_cases}
    return ProfileOutcome("solver", injected, observed, tuple(findings))


# -- cluster profile ----------------------------------------------------


def run_cluster_profile(plan: FaultPlan) -> ProfileOutcome:
    """Fleet-outage / membership-churn chaos against the cluster tier.

    The plan schedules whole-fleet outages (one landing just after a
    forced drain) and flapping join/drain pairs; the simulator applies
    them on the virtual clock and counts each applied event under
    ``faults.injected.*``.  The audits reconcile scheduled vs. applied
    vs. observed, and check the membership lifecycle contracts the
    serving docs promise.
    """
    schedule = plan.cluster_schedule(duration_s=CLUSTER_DURATION_S)
    sources = dataset_keys()[:CLUSTER_SOURCE_COUNT]
    spec = LoadSpec(
        seed=plan.seed,
        duration_s=CLUSTER_DURATION_S,
        rate_rps=schedule.rate_rps,
        mix="bursty",
        sources=tuple(sources),
    )
    config = chaos_cluster_config(schedule)
    report = run_cluster_loadtest(spec, config)

    findings: list[ChaosFinding] = []

    def violated(check: str, message: str) -> None:
        findings.append(ChaosFinding("cluster", check, message))

    injected = {
        name: value
        for name, value in report.counters.items()
        if name.startswith("faults.injected.")
    }
    if report.unaccounted != 0:
        violated(
            "CHS-CLUSTER-ACCOUNT",
            f"{report.unaccounted} request(s) neither completed nor "
            "shed/expired/failed (accounting hole under churn)",
        )
    applied_outages = injected.get("faults.injected.fleet_outage", 0)
    if applied_outages != len(schedule.fleet_faults):
        violated(
            "CHS-CLUSTER-INJECT",
            f"scheduled {len(schedule.fleet_faults)} fleet outage(s) but "
            f"{applied_outages} were applied",
        )
    applied_scale = injected.get("faults.injected.forced_scale", 0)
    if not 1 <= applied_scale <= len(schedule.forced_scale):
        violated(
            "CHS-CLUSTER-INJECT",
            f"{applied_scale} forced scale event(s) applied; expected "
            f"between 1 and the {len(schedule.forced_scale)} scheduled "
            "(membership never flapped)",
        )
    observed_outages = sum(f.outages for f in report.fleets)
    if observed_outages != applied_outages:
        violated(
            "CHS-CLUSTER-RECOVER",
            f"fleets record {observed_outages} outage(s) but "
            f"{applied_outages} were applied",
        )
    stuck = [
        f.fleet_id
        for f in report.fleets
        if f.alive and f.faulted_until is not None
    ]
    if stuck:
        violated(
            "CHS-CLUSTER-RECOVER",
            f"fleet(s) {stuck} still marked faulted after the run — a "
            "recovery event was lost",
        )
    doc = report.as_dict()
    if doc["fleets"]["peak"] > config.max_fleets:
        violated(
            "CHS-CLUSTER-MEMBER",
            f"peak fleet count {doc['fleets']['peak']} exceeds "
            f"max_fleets={config.max_fleets}",
        )
    final_alive = sum(1 for f in report.fleets if f.alive)
    if final_alive < config.min_fleets:
        violated(
            "CHS-CLUSTER-MEMBER",
            f"{final_alive} fleet(s) alive at the end, below "
            f"min_fleets={config.min_fleets}",
        )
    for fleet in report.fleets:
        if fleet.retired_s is None:
            continue
        if fleet.drained_s is None or fleet.retired_s < fleet.drained_s:
            violated(
                "CHS-CLUSTER-DRAIN",
                f"fleet {fleet.fleet_id} retired at {fleet.retired_s} "
                f"without a preceding drain (drained_s="
                f"{fleet.drained_s})",
            )
        if fleet.backlog != 0 or fleet.queues:
            violated(
                "CHS-CLUSTER-DRAIN",
                f"fleet {fleet.fleet_id} retired with {fleet.backlog} "
                "queued request(s) — drain must finish the backlog "
                "first",
            )
    cache = report.cache
    if not (
        cache.stats.misses
        == cache.publishes
        == len(cache.directory)
    ):
        violated(
            "CHS-CLUSTER-CACHE",
            f"cache ladder inconsistent: {cache.stats.misses} miss(es), "
            f"{cache.publishes} publish(es), {len(cache.directory)} "
            "directory entries — each structure must miss exactly once "
            "cluster-wide",
        )
    actions = [
        index
        for index, decision in enumerate(report.autoscaler.decisions)
        if decision.action is not ScaleAction.HOLD
    ]
    min_gap = config.policy.cooldown_intervals + 1
    too_close = [
        (a, b)
        for a, b in zip(actions, actions[1:])
        if b - a < min_gap
    ]
    if too_close:
        violated(
            "CHS-CLUSTER-SCALE",
            f"autoscaler actions at evaluation indices {too_close} are "
            f"closer than the cooldown ({min_gap} intervals) allows",
        )
    pressure = (
        doc["requests"]["shed_overflow"] + doc["requests"]["expired"]
    )
    if pressure == 0:
        violated(
            "CHS-CLUSTER-PRESSURE",
            "outages and churn produced no shed or expired request — "
            "the chaos schedule exerted no pressure",
        )

    observed = {
        "rate_rps": schedule.rate_rps,
        "scheduled_outages": len(schedule.fleet_faults),
        "scheduled_forced_scale": len(schedule.forced_scale),
        "mid_drain_at_s": schedule.mid_drain_at_s,
        "requests": doc["requests"],
        "routing": doc["routing"],
        "cache_lookups": doc["cache"]["lookups"],
        "autoscaler": {
            key: value
            for key, value in doc["autoscaler"].items()
            if key != "decisions"
        },
        "fleets": {
            "peak": doc["fleets"]["peak"],
            "final": doc["fleets"]["final"],
            "outages": observed_outages,
        },
        "batches": doc["batches"]["count"],
    }
    return ProfileOutcome("cluster", injected, observed, tuple(findings))


# -- placement profile --------------------------------------------------


def run_placement_profile(plan: FaultPlan) -> ProfileOutcome:
    """Flapping-GPU-tenant chaos against a mixed FPGA+GPU fleet.

    The plan schedules class-tagged device outages — a GPU tenant that
    flaps (two short outages back to back) plus FPGA-slot outages — on
    a fleet tenanting both classes with CPU assist.  The audits pin the
    class-isolation contract: a GPU fault must never evict an FPGA
    resident (and vice versa), placement decisions must cover every
    profiled source un-forced, and both slot pools must carry real
    batches while the tenants flap.
    """
    schedule = plan.placement_schedule(
        duration_s=PLACEMENT_DURATION_S,
        fpga_slots=PLACEMENT_FPGA_SLOTS,
        gpu_tenants=PLACEMENT_GPU_TENANTS,
    )
    collector = Telemetry()
    with collector.activate():
        config = chaos_placement_config(
            schedule,
            fpga_slots=PLACEMENT_FPGA_SLOTS,
            gpu_tenants=PLACEMENT_GPU_TENANTS,
        )
        spec = LoadSpec(
            seed=plan.seed,
            duration_s=PLACEMENT_DURATION_S,
            rate_rps=schedule.rate_rps,
            mix="uniform",
            sources=PLACEMENT_SOURCES,
        )
        report = run_loadtest(spec, config)

    findings: list[ChaosFinding] = []

    def violated(check: str, message: str) -> None:
        findings.append(ChaosFinding("placement", check, message))

    if report.unaccounted != 0:
        violated(
            "CHS-PLACE-ACCOUNT",
            f"{report.unaccounted} request(s) dropped without a response "
            "on the mixed fleet",
        )
    applied_faults = report.counters.get("serve.device_faults", 0)
    if applied_faults != len(schedule.device_faults):
        violated(
            "CHS-PLACE-INJECT",
            f"scheduled {len(schedule.device_faults)} class-tagged "
            f"outage(s) but {applied_faults} were applied — both slot "
            "pools exist, so none may be skipped",
        )
    slots = report.scheduler.slots
    for name in ("fpga", "gpu"):
        observed = sum(
            s.outages for s in slots if s.device_class == name
        )
        scheduled = len(schedule.faults_for(name))
        if observed != scheduled:
            violated(
                "CHS-PLACE-ISOLATE",
                f"{scheduled} {name} outage(s) scheduled but {name} "
                f"slots record {observed} — a fault crossed device "
                "classes",
            )
    decisions = {}
    for source, profile in report.scheduler.profiles.items():
        if isinstance(profile, str):
            continue
        decision = report.scheduler.placement_for(source)
        if decision is None:
            violated(
                "CHS-PLACE-DECIDE",
                f"source {source} has a profile but no placement "
                "decision",
            )
            continue
        decisions[source] = decision
        if decision.device_class not in ("fpga", "gpu"):
            violated(
                "CHS-PLACE-DECIDE",
                f"source {source} placed on unknown class "
                f"{decision.device_class!r}",
            )
        if decision.forced:
            violated(
                "CHS-PLACE-DECIDE",
                f"source {source} placement was forced although both "
                "device classes are tenanted",
            )
    fpga_batches = report.counters.get("placement.fpga_batches", 0)
    gpu_batches = report.counters.get("placement.gpu_batches", 0)
    if fpga_batches == 0 or gpu_batches == 0:
        violated(
            "CHS-PLACE-SERVE",
            f"both slot pools must carry batches under chaos, got "
            f"{fpga_batches} fpga / {gpu_batches} gpu",
        )
    if gpu_batches and not report.counters.get("gpu.transfers", 0):
        violated(
            "CHS-PLACE-SERVE",
            f"{gpu_batches} GPU batch(es) served without a single PCIe "
            "structure transfer — flapping tenants must re-upload",
        )

    injected = _injected(collector)
    observed = {
        "rate_rps": schedule.rate_rps,
        "scheduled_outages": {
            "fpga": len(schedule.faults_for("fpga")),
            "gpu": len(schedule.faults_for("gpu")),
        },
        "placement": {
            source: decisions[source].device_class
            for source in sorted(decisions)
        },
        "batches": {"fpga": fpga_batches, "gpu": gpu_batches},
        "gpu_transfers": report.counters.get("gpu.transfers", 0),
        "cpu_assist_offloads": report.counters.get(
            "placement.cpu_assist_offloads", 0
        ),
        "requests": {
            "offered": report.counters.get("serve.requests", 0),
            "completed": len(report.completed),
            "shed": report.shed_count,
            "expired": report.expired_count,
        },
    }
    return ProfileOutcome("placement", injected, observed, tuple(findings))


PROFILE_RUNNERS: dict[str, Callable[[FaultPlan], ProfileOutcome]] = {
    "pool": run_pool_profile,
    "serve": run_serve_profile,
    "solver": run_solver_profile,
    "cluster": run_cluster_profile,
    "placement": run_placement_profile,
}


def run_chaos(
    chaos_seed: int, profiles: Sequence[str] = CHAOS_PROFILES
) -> ChaosReport:
    """Run the requested chaos profiles for one seed."""
    outcomes = []
    for profile in profiles:
        runner = PROFILE_RUNNERS.get(profile)
        if runner is None:
            raise UnknownNameError(
                f"unknown chaos profile {profile!r}; expected one of "
                f"{CHAOS_PROFILES}"
            )
        outcomes.append(runner(FaultPlan(chaos_seed)))
    return ChaosReport(chaos_seed=chaos_seed, profiles=tuple(outcomes))
