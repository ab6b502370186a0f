"""Campaign runner: Acamar over a whole collection of systems.

A deployment evaluates the accelerator against *its* workload population,
not single matrices.  :func:`run_campaign` takes any mix of problem
sources — Table II keys, ``.mtx``/``.mtx.gz`` paths, or in-memory
:class:`~repro.datasets.problem.Problem` objects — solves each with
Acamar, costs it on the FPGA model, and aggregates a
:class:`CampaignReport` (convergence rate, solver mix, latency and
utilization statistics).  The CSV export plugs into the same downstream
tooling as the experiment exports.

Scaling and observability:

- ``workers=N`` shards the population across a process pool via
  :func:`repro.parallel.run_sharded` — cost-balanced chunks
  (:func:`estimate_cost`), deterministic per-problem seeds
  (``seed + position``), ordered reassembly, and per-problem fault
  isolation (:func:`solve_items`), so results are entry-for-entry
  identical to the serial path, which runs through the same engine;
- a solve that raises (or a lost worker process, after bounded retries)
  yields a **failure-annotated** :class:`CampaignEntry` instead of
  aborting the campaign,
- every run collects :mod:`repro.telemetry` spans/counters from the
  decision loops and cost model; the aggregate rides on
  :attr:`CampaignReport.telemetry` and serializes with
  :meth:`CampaignReport.write_telemetry`.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

import numpy as np

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.core import Acamar
from repro.datasets import load_problem, manufacture_problem
from repro.datasets.problem import Problem
from repro.datasets.suite import dataset_keys, dataset_spec
from repro.errors import DatasetError, ValidationError
from repro.fpga import PerformanceModel, mean_underutilization
from repro.metrics import achieved_throughput_fraction
from repro.parallel import ItemResult, WorkItem, run_sharded
from repro.telemetry import TELEMETRY_SCHEMA_VERSION, Telemetry

ProblemSource = Union[str, Path, Problem]

_MTX_SUFFIXES = (".mtx", ".mtx.gz")


@dataclass(frozen=True)
class CampaignEntry:
    """Outcome of one campaign solve.

    ``failure`` is ``None`` for a completed solve (converged or not) and
    an ``"ExceptionType: message"`` string when the solve raised or its
    worker process was lost — in which case the numerical fields are
    zeroed and ``converged`` is False.
    """

    name: str
    n: int
    nnz: int
    converged: bool
    solver_sequence: tuple[str, ...]
    iterations: int
    compute_ms: float
    reconfig_ms: float
    underutilization: float
    throughput: float
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


def failure_entry(name: str, error: str) -> CampaignEntry:
    """A zeroed entry recording why ``name`` produced no result."""
    return CampaignEntry(
        name=name,
        n=0,
        nnz=0,
        converged=False,
        solver_sequence=(),
        iterations=0,
        compute_ms=0.0,
        reconfig_ms=0.0,
        underutilization=0.0,
        throughput=0.0,
        failure=error,
    )


@dataclass
class CampaignReport:
    """Aggregate over all campaign entries."""

    entries: list[CampaignEntry]
    telemetry: dict[str, Any] | None = None

    @property
    def convergence_rate(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.converged for e in self.entries) / len(self.entries)

    @property
    def failures(self) -> list[CampaignEntry]:
        return [e for e in self.entries if e.failed]

    @property
    def solver_mix(self) -> dict[str, int]:
        """How often each solver produced the final (converging) result."""
        mix: dict[str, int] = {}
        for entry in self.entries:
            if not entry.solver_sequence:
                continue
            final = entry.solver_sequence[-1]
            mix[final] = mix.get(final, 0) + 1
        return mix

    @property
    def mean_underutilization(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.underutilization for e in self.entries]))

    @property
    def mean_throughput(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.throughput for e in self.entries]))

    @property
    def total_compute_ms(self) -> float:
        return sum(e.compute_ms for e in self.entries)

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "name", "n", "nnz", "converged", "solver_sequence",
                "iterations", "compute_ms", "reconfig_ms",
                "underutilization", "throughput", "failure",
            ])
            for e in self.entries:
                writer.writerow([
                    e.name, e.n, e.nnz, e.converged,
                    "->".join(e.solver_sequence), e.iterations,
                    f"{e.compute_ms:.6f}", f"{e.reconfig_ms:.6f}",
                    f"{e.underutilization:.6f}", f"{e.throughput:.6f}",
                    e.failure or "",
                ])
        return path

    def write_telemetry(self, path: str | Path) -> Path:
        """Serialize the telemetry aggregate (see docs/operations.md)."""
        import json

        if self.telemetry is None:
            raise ValidationError("this report carries no telemetry aggregate")
        path = Path(path)
        path.write_text(json.dumps(self.telemetry, indent=2) + "\n")
        return path

    def summary_lines(self) -> list[str]:
        lines = [
            f"systems solved        : {len(self.entries)}",
            f"convergence rate      : {self.convergence_rate:.0%}",
            f"solver mix            : {self.solver_mix}",
            f"mean underutilization : {self.mean_underutilization:.1%}",
            f"mean throughput       : {self.mean_throughput:.1%}",
            f"total compute         : {self.total_compute_ms:.3f} ms",
        ]
        if self.failures:
            lines.append(
                f"failures              : {len(self.failures)} "
                f"({', '.join(e.name for e in self.failures)})"
            )
        return lines


def problem_name_from_path(text: str | Path) -> str:
    """Problem name for a Matrix Market path, stripping ``.mtx[.gz]``."""
    name = Path(text).name
    for suffix in (".mtx.gz", ".mtx"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return Path(text).stem


def source_label(source: ProblemSource) -> str:
    """Human-readable name for a source (used in failure records)."""
    if isinstance(source, Problem):
        return source.name
    text = str(source)
    if text.endswith(_MTX_SUFFIXES):
        return problem_name_from_path(text)
    return text


def estimate_cost(source: ProblemSource) -> float:
    """Estimated solve cost of a source, in NNZ-like units.

    In-memory problems report their exact NNZ.  Matrix Market paths are
    costed by file size (proportional to NNZ — one text line per entry).
    Table II keys fall back to the registry's dimension ``n``.  The
    estimate only balances pool chunks: relative error against the true
    NNZ skews load balance, never correctness.
    """
    if isinstance(source, Problem):
        return float(source.nnz)
    text = str(source)
    if text.endswith(_MTX_SUFFIXES):
        try:
            return float(os.path.getsize(text))
        except OSError:
            return 1.0
    if text in dataset_keys():
        return float(dataset_spec(text).n)
    return 1.0


def validate_source(source: ProblemSource) -> None:
    """Raise :class:`DatasetError` if ``source`` cannot be resolved.

    Cheap (no matrix is built or read), so the campaign can reject a bad
    population up front — before any worker process is spawned.
    """
    if isinstance(source, Problem):
        return
    text = str(source)
    if text.endswith(_MTX_SUFFIXES):
        if not os.path.exists(text):
            raise DatasetError(
                f"cannot resolve problem source {source!r}: "
                "Matrix Market file does not exist"
            )
        return
    if text not in dataset_keys():
        raise DatasetError(
            f"cannot resolve problem source {source!r}: expected a Table II "
            "key, a .mtx path, or a Problem instance"
        )


def resolve_source(source: ProblemSource, seed: int) -> Problem:
    """Materialize a problem source into a :class:`Problem`."""
    if isinstance(source, Problem):
        return source
    validate_source(source)
    text = str(source)
    if text.endswith(_MTX_SUFFIXES):
        from repro.sparse.io import read_matrix_market

        matrix = read_matrix_market(text)
        return manufacture_problem(
            problem_name_from_path(text), matrix, seed=seed
        )
    return load_problem(text)


def build_entry(
    problem: Problem,
    config: AcamarConfig,
    acamar: Acamar | None = None,
    model: PerformanceModel | None = None,
) -> CampaignEntry:
    """Solve one problem and cost it on the FPGA model."""
    acamar = acamar if acamar is not None else Acamar(config)
    model = model if model is not None else PerformanceModel()
    with tm.span("campaign.solve"):
        result = acamar.solve(problem.matrix, problem.b)
    with tm.span("campaign.cost_model"):
        latency = model.acamar_latency(problem.matrix, result)
        lengths = problem.matrix.row_lengths()
        underutilization = mean_underutilization(
            lengths, result.plan.unroll_for_rows
        )
        throughput = achieved_throughput_fraction(
            latency.final.spmv_report,
            latency.final.loop_sweeps,
            model.device,
        )
    return CampaignEntry(
        name=problem.name,
        n=problem.n,
        nnz=problem.nnz,
        converged=result.converged,
        solver_sequence=result.solver_sequence,
        iterations=result.final.iterations,
        compute_ms=latency.compute_seconds * 1e3,
        reconfig_ms=sum(a.reconfig_seconds for a in latency.attempts) * 1e3,
        underutilization=underutilization,
        throughput=throughput,
    )


def solve_items(
    items: Sequence[WorkItem], config: AcamarConfig
) -> list[ItemResult]:
    """Worker entry point: solve a chunk of items, isolating each fault.

    :func:`run_campaign` hands it to :func:`repro.parallel.run_sharded`,
    which calls it in this process or in pool workers.  Every item gets
    its own telemetry collector; any exception is converted to a
    structured error record under the item's label, so one diverging or
    crashing solve cannot take down its chunk-mates.
    """
    results: list[ItemResult] = []
    for item in items:
        collector = Telemetry()
        with collector.activate():
            try:
                with tm.span("campaign.resolve"):
                    problem = resolve_source(item.source, item.seed)
                entry = build_entry(problem, config)
                results.append(
                    ItemResult(
                        index=item.index,
                        entry=entry,
                        error=None,
                        label=entry.name,
                        telemetry=collector.as_dict(),
                    )
                )
            except Exception as exc:  # noqa: BLE001 — fault isolation
                tm.count("campaign.failures")
                results.append(
                    ItemResult(
                        index=item.index,
                        entry=None,
                        error=f"{type(exc).__name__}: {exc}",
                        label=item.label,
                        telemetry=collector.as_dict(),
                    )
                )
    return results


def _campaign_telemetry(
    collector: Telemetry,
    entries: list[CampaignEntry],
    workers: int,
    wall_seconds: float,
    engine: dict[str, int] | None = None,
) -> dict[str, Any]:
    """Assemble the documented campaign telemetry schema."""
    base = collector.as_dict()
    counters = base["counters"]
    solver_attempts = {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("solver_attempts.")
    }
    failures = sum(1 for e in entries if e.failed)
    document: dict[str, Any] = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "campaign": {
            "workers": workers,
            "wall_seconds": round(wall_seconds, 6),
            "problems": len(entries),
            "converged": sum(1 for e in entries if e.converged),
            "failures": failures,
        },
        "solver_attempts": solver_attempts,
        "reconfigurations": {
            "spmv_events": counters.get("spmv_reconfig_events", 0),
            "solver_swaps": counters.get("solver_swaps", 0),
            "msid_events_removed": counters.get("msid_events_removed", 0),
        },
        "stages": base["spans"],
        "counters": counters,
    }
    if engine:
        document["campaign"].update(engine)
    return document


def run_campaign(
    sources: Iterable[ProblemSource],
    config: AcamarConfig | None = None,
    seed: int = 1,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> CampaignReport:
    """Solve every source with Acamar and aggregate the results.

    ``workers=None`` (or ``<= 1``) runs serially in-process; ``workers=N``
    shards across ``N`` worker processes.  Both run through
    :func:`repro.parallel.run_sharded` with the same per-problem seed
    derivation and :func:`solve_items`, so the parallel report is
    entry-for-entry identical to the serial one.  Unresolvable sources
    raise :class:`DatasetError` immediately; solve-time faults become
    failure-annotated entries.
    """
    config = config if config is not None else AcamarConfig()
    source_list = list(sources)
    for source in source_list:
        validate_source(source)
    items = [
        WorkItem(
            index=index,
            source=source,
            seed=seed + index,
            cost=estimate_cost(source),
            label=source_label(source),
        )
        for index, source in enumerate(source_list)
    ]

    start = time.perf_counter()
    outcome = run_sharded(
        items,
        config,
        workers or 1,
        work_fn=solve_items,
        chunk_size=chunk_size,
    )
    wall_seconds = time.perf_counter() - start
    entries = [
        result.entry
        if result.entry is not None
        else failure_entry(result.label, result.error)
        for result in outcome.results
    ]
    engine_stats: dict[str, int] | None = None
    if outcome.workers > 1:
        engine_stats = {
            "chunks": outcome.chunks,
            "pool_restarts": outcome.pool_restarts,
            "in_process_items": outcome.in_process_items,
            "abandoned_items": outcome.abandoned_items,
        }
    report = CampaignReport(entries=entries)
    report.telemetry = _campaign_telemetry(
        outcome.telemetry, entries, outcome.workers, wall_seconds,
        engine_stats,
    )
    return report
