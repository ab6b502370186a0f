"""Cold-solve profiling: one real Acamar solve per unique structure.

The serving simulator charges *modeled* device time, so each distinct
problem source needs a ground-truth profile: which solver sequence the
decision loops pick, how many iterations the final attempt runs, and the
cost model's per-attempt compute latency.  :func:`profile_items` is a
worker entry point with the same ``(items, config) -> list[ItemResult]``
shape as the campaign's ``solve_items``, so the service dispatches
profiling through :func:`repro.parallel.run_sharded` (serially, or on a
pool with restarts, fault isolation and ordered reassembly), and a
caller that shares solves across calls runs it in this process.

Host-side analysis latency is modeled with explicit constants below:
the Matrix Structure unit reads every stored entry (dominance sums plus
the CSR-vs-CSC comparison), so its cost scales with NNZ; the Fine-
Grained Reconfiguration unit walks row sets, so its cost scales with row
count.  These charges are what a fingerprint-cache hit skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro import telemetry as tm
from repro.campaign import resolve_source
from repro.config import AcamarConfig
from repro.core.accelerator import Acamar, AcamarResult, numerics_key
from repro.datasets.problem import Problem
from repro.parallel import ItemResult, WorkItem, isolated
from repro.placement import (
    CPU_ASSIST_ROUNDTRIP_SECONDS,
    estimate_gpu_service,
    structural_class_of,
)
from repro.serve.cache import plan_signature

SharedSolves = dict[Hashable, tuple[Problem, dict[Hashable, AcamarResult]]]
"""Resolved problems and their real solves, shared by many profiling
runs, per ``(source, seed)`` (a DSE sweep keeps one in its
:class:`~repro.dse.evaluator.SweepMemo`); each problem's own dict is
keyed as :func:`_solve` stores it."""

ANALYSIS_SECONDS_PER_NNZ = 25e-9
"""Host time per stored entry for the structure checks (Eq. 1 sums plus
the CSR/CSC symmetry comparison)."""

PLANNING_SECONDS_PER_ROW = 10e-9
"""Host time per matrix row for the Row Length Trace, MSID chain and
unroll quantization."""

DISPATCH_OVERHEAD_SECONDS = 5e-6
"""Fixed per-request dispatch cost (queue pop, fingerprint lookup,
descriptor DMA) charged on every served request, hit or miss."""

BATCH_MEMBER_DISPATCH_SECONDS = 1e-6
"""Dispatch cost of the second and later members of a fingerprint
micro-batch.  The batch's first member pays the full
:data:`DISPATCH_OVERHEAD_SECONDS` (descriptor setup, fingerprint lookup);
members riding the same configured slot reuse the descriptor and the
lookup and pay only the queue pop — the serving-tier analogue of the
batched solver backend's amortized host analysis."""


@dataclass(frozen=True)
class SolveProfile:
    """Deterministic serving profile of one problem source.

    The GPU fields price the same solve on a cuSPARSE SpMV tenant (see
    :mod:`repro.placement.gpu_cost`): ``gpu_warm_service_s`` is the
    roofline-plus-launch cost of the final attempt's iterations,
    ``gpu_transfer_s`` the PCIe structure upload a residency miss pays
    instead of an ICAP configuration load.  ``structural_class`` is the
    Table-II row the source belongs to.  All are plain profile scalars
    so placement decisions stay byte-deterministic.
    """

    label: str
    fingerprint: str
    plan_signature: str
    n: int
    nnz: int
    converged: bool
    solver_sequence: tuple[str, ...]
    iterations: int
    attempt_compute_s: tuple[float, ...]
    solver_swap_s: float
    analysis_s: float
    structural_class: str = "general"
    gpu_warm_service_s: float = 0.0
    gpu_transfer_s: float = 0.0

    @property
    def final_compute_s(self) -> float:
        return self.attempt_compute_s[-1] if self.attempt_compute_s else 0.0

    @property
    def cold_service_s(self) -> float:
        """Device+host seconds for a cache-miss solve.

        Full analysis, every fallback attempt, and a solver-region swap
        per Solver Modifier firing.
        """
        swaps = max(0, len(self.attempt_compute_s) - 1)
        return (
            self.analysis_s
            + sum(self.attempt_compute_s)
            + swaps * self.solver_swap_s
        )

    @property
    def warm_service_s(self) -> float:
        """Device seconds when analysis and solver choice come from cache."""
        return self.final_compute_s

    @property
    def attempt_scale(self) -> float:
        """Fallback-chain inflation: total attempt seconds over final.

        Iteration-count driven and therefore device-independent; used to
        re-price the cold fallback chain on a GPU tenant without a
        second ground-truth solve.
        """
        if self.final_compute_s <= 0.0:
            return 1.0
        return sum(self.attempt_compute_s) / self.final_compute_s

    @property
    def gpu_cold_service_s(self) -> float:
        """GPU seconds for a cache-miss solve on a tenant.

        Host analysis is unchanged (it runs on the CPU either way); the
        fallback-attempt chain scales the warm GPU cost by the same
        attempt/final ratio the FPGA profile measured.
        """
        return self.analysis_s + self.attempt_scale * self.gpu_warm_service_s

    def member_service_s(
        self, device_class: str, cold: bool, cpu_assist: bool = False
    ) -> float:
        """Modeled service seconds of one batch member on ``device_class``.

        With ``cpu_assist`` the cold analysis runs concurrently on the
        host assist tier: the accelerator pays only the offload
        round-trip instead of the full structure analysis (the warm
        path never pays analysis, so assist changes nothing there).
        """
        if device_class == "gpu":
            service = (
                self.gpu_cold_service_s if cold else self.gpu_warm_service_s
            )
        else:
            service = self.cold_service_s if cold else self.warm_service_s
        if cold and cpu_assist:
            service = (
                service - self.analysis_s + CPU_ASSIST_ROUNDTRIP_SECONDS
            )
        return service


def _solve(
    acamar: Acamar, problem: Problem, solves: dict[Hashable, AcamarResult]
) -> AcamarResult:
    """``acamar.solve`` of ``problem``, or a stored solve it would repeat.

    ``solves`` holds earlier solves of this same problem.  A solve is
    stored under its ``numerics_key`` when its first attempt converged,
    so no fallback order was read, and under that key and the fallback
    order otherwise.  A lookup tries both keys, so a stored solve is
    reused only when it has the selection and attempts this config
    would run (see :func:`~repro.core.accelerator.numerics_key`); they
    are returned under this config's own plan.
    """
    key = numerics_key(acamar.config)
    ordered = (key, acamar.config.solver_fallback_order)
    for stored in (key, ordered):
        if stored in solves:
            solved = solves[stored]
            return AcamarResult(
                selection=solved.selection,
                plan=acamar.plan(problem.matrix),
                attempts=solved.attempts,
            )
    result = acamar.solve(problem.matrix, problem.b)
    solves[key if result.attempts[0].result.converged else ordered] = result
    return result


def build_profile(
    problem: Problem,
    config: AcamarConfig,
    solves: dict[Hashable, AcamarResult],
) -> SolveProfile:
    """Run the real decision loops + cost model for one problem.

    ``solves`` holds the real solves of ``problem`` made under other
    configs (``{}`` for none).  A stored solve is priced again under
    this config's plan whenever its attempts are the ones this config
    would run; only a miss solves, and stores its solve there.
    """
    from repro.fpga import PerformanceModel

    acamar = Acamar(config)
    model = PerformanceModel()
    with tm.span("serve.profile.solve"):
        result = _solve(acamar, problem, solves)
    with tm.span("serve.profile.cost_model"):
        latency = model.acamar_latency(problem.matrix, result)
    matrix = problem.matrix
    gpu = estimate_gpu_service(
        matrix.row_lengths(), result.final.iterations
    )
    return SolveProfile(
        label=problem.name,
        fingerprint=matrix.structure_fingerprint(),
        plan_signature=plan_signature(result.plan),
        n=int(matrix.n_rows),
        nnz=int(matrix.nnz),
        converged=result.converged,
        solver_sequence=result.solver_sequence,
        iterations=result.final.iterations,
        attempt_compute_s=tuple(
            a.compute_seconds for a in latency.attempts
        ),
        solver_swap_s=model.reconfig.solver_swap_seconds(),
        analysis_s=(
            ANALYSIS_SECONDS_PER_NNZ * matrix.nnz
            + PLANNING_SECONDS_PER_ROW * matrix.n_rows
        ),
        structural_class=structural_class_of(result.solver_sequence),
        gpu_warm_service_s=gpu.warm_service_s,
        gpu_transfer_s=gpu.transfer_s,
    )


def _profile_item(
    item: WorkItem, config: AcamarConfig, solves: SharedSolves | None
) -> SolveProfile:
    memo = solves if solves is not None else {}
    key = (item.source, item.seed)
    if key not in memo:
        with tm.span("serve.profile.resolve"):
            problem = resolve_source(item.source, item.seed)
        memo[key] = (problem, {})
    problem, stored = memo[key]
    return build_profile(problem, config, stored)


def profile_items(
    items: Sequence[WorkItem],
    config: AcamarConfig,
    solves: SharedSolves | None = None,
) -> list[ItemResult]:
    """Worker entry point: profile a chunk of sources, isolating faults.

    Mirrors the campaign's ``solve_items`` contract so it can ride
    ``run_sharded`` unchanged: each item runs through
    :func:`repro.parallel.isolated`.  ``solves`` holds problems and real
    solves shared with other calls, per item ``(source, seed)``: an item
    whose key it holds is not resolved again, and is solved again only
    where no stored solve repeats.  Without it each item starts from a
    fresh dict, dropped with the item.
    """
    return [
        isolated(item, lambda: _profile_item(item, config, solves))
        for item in items
    ]
