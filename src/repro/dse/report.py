"""DSE report assembly and rendering (text / JSON / CSV).

:func:`run_dse` is the one-call driver behind ``repro dse`` and the
benchmark harness: sweep, frontier, capacity answer, one report.  The
JSON form is byte-identical per (space, seed) across runs, machines
and ``--workers`` values — it contains only simulated and modeled
quantities, never wall-clock — so CI can ``cmp`` two invocations.
Wall-clock telemetry is exported separately (``--telemetry``) and is
explicitly not deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.config import AcamarConfig
from repro.dse.capacity import CapacityQuery, plan_capacity
from repro.dse.evaluator import run_sweep
from repro.dse.frontier import OBJECTIVES, compute_frontier
from repro.dse.space import DesignSpace, demo_space
from repro.serve.stats import format_latency_ms
from repro.telemetry import Telemetry

DSE_SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "id", "traffic", "mix", "rate_rps", "slots_per_fleet", "max_unroll",
    "solver_mix", "cache_capacity", "queue_capacity", "min_fleets",
    "max_fleets", "gpu_tenants", "cpu_assist", "p50_ms", "p99_ms",
    "completed", "shed_rate", "device_seconds", "area_mm2",
    "fabric_mm2_seconds", "reconfig_rate_per_s", "gflops_per_watt",
    "on_frontier",
)


def _csv_ms(value: Any) -> str:
    """Render a latency cell; idle points carry ``None`` sentinels."""
    return "n/a" if value is None else f"{float(value):.6f}"


@dataclass(frozen=True)
class DseReport:
    """One finished design-space exploration."""

    space: DesignSpace
    seed: int
    records: tuple[dict[str, Any], ...]
    failures: tuple[dict[str, Any], ...]
    frontier_ids: tuple[str, ...]
    capacity: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": DSE_SCHEMA_VERSION,
            "dse": {
                "seed": self.seed,
                "points": len(self.space),
                "evaluated": len(self.records),
                "failed": len(self.failures),
                "objectives": list(OBJECTIVES),
            },
            "space": self.space.as_dict(),
            "points": sorted(
                self.records, key=lambda record: record["id"]
            ),
            "frontier": list(self.frontier_ids),
            "capacity": self.capacity,
            "failures": sorted(
                self.failures, key=lambda failure: failure["id"]
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    def to_csv(self) -> str:
        frontier = set(self.frontier_ids)
        lines = [",".join(CSV_COLUMNS)]
        for record in sorted(self.records, key=lambda r: r["id"]):
            shape = record["shape"]
            traffic = record["traffic"]
            metrics = record["metrics"]
            row = (
                record["id"],
                traffic["name"],
                traffic["mix"],
                f"{traffic['rate_rps']:g}",
                str(shape["slots_per_fleet"]),
                str(shape["max_unroll"]),
                shape["solver_mix"],
                str(shape["cache_capacity"]),
                str(shape["queue_capacity"]),
                str(shape["min_fleets"]),
                str(shape["max_fleets"]),
                str(shape.get("gpu_tenants", 0)),
                "1" if shape.get("cpu_assist") else "0",
                _csv_ms(metrics["p50_ms"]),
                _csv_ms(metrics["p99_ms"]),
                str(metrics["completed"]),
                f"{metrics['shed_rate']:.9f}",
                f"{metrics['device_seconds']:.9f}",
                f"{metrics['area_mm2']:.9f}",
                f"{metrics['fabric_mm2_seconds']:.9f}",
                f"{metrics['reconfig_rate_per_s']:.9f}",
                f"{metrics['gflops_per_watt']:.9f}",
                "1" if record["id"] in frontier else "0",
            )
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_csv())
        return path

    def summary_lines(self) -> list[str]:
        lines = [
            f"design points          : {len(self.space)} "
            f"({len(self.space.shapes)} shapes x "
            f"{len(self.space.traffic)} traffic specs)",
            f"evaluated / failed     : {len(self.records)} / "
            f"{len(self.failures)}",
            f"frontier               : {len(self.frontier_ids)} "
            "non-dominated points",
        ]
        by_id = {record["id"]: record for record in self.records}
        for identity in self.frontier_ids:
            metrics = by_id[identity]["metrics"]
            p99 = format_latency_ms(metrics["p99_ms"])
            lines.append(
                f"  {identity}: p99 {p99} ms, "
                f"{metrics['device_seconds']:.4f} dev-s, "
                f"{metrics['area_mm2']:.3f} mm2, "
                f"{metrics['reconfig_rate_per_s']:.2f} cfg/s, "
                f"{metrics['gflops_per_watt']:.3f} GFLOPS/W"
            )
        query = self.capacity["query"]
        lines.append(
            f"capacity query         : p99 <= {query['slo_p99_ms']:g} ms "
            f"at >= {query['rate_rps']:g} rps "
            f"(shed <= {query['max_shed_rate']:.1%})"
        )
        cheapest = self.capacity["cheapest"]
        if cheapest is None:
            lines.append(
                "capacity answer        : no feasible configuration "
                f"({self.capacity['considered']} considered)"
            )
        else:
            lines.append(
                f"capacity answer        : {cheapest['id']} "
                f"(p99 {format_latency_ms(cheapest['p99_ms'])} ms, "
                f"{cheapest['fabric_mm2_seconds']:.3f} mm2-s, "
                f"{len(self.capacity['feasible'])} feasible)"
            )
        return lines

    def render_text(self) -> str:
        return "\n".join(self.summary_lines()) + "\n"


def build_report(
    space: DesignSpace,
    seed: int,
    results: list[Any],
    query: CapacityQuery,
) -> DseReport:
    """Fold sweep results into frontier + capacity answer."""
    records = []
    failures = []
    for result in results:
        if result.entry is not None:
            records.append(result.entry)
        else:
            failures.append(
                {"id": result.label, "error": result.error}
            )
    frontier = compute_frontier(records)
    return DseReport(
        space=space,
        seed=seed,
        records=tuple(records),
        failures=tuple(failures),
        frontier_ids=tuple(record["id"] for record in frontier),
        capacity=plan_capacity(records, query),
    )


def run_dse(
    space: DesignSpace | None = None,
    seed: int = 0,
    workers: int = 1,
    query: CapacityQuery | None = None,
    base_config: AcamarConfig | None = None,
    collector: Telemetry | None = None,
) -> DseReport:
    """Sweep a design space end-to-end and report.

    Defaults to the committed demo space and the default capacity
    query; ``workers`` fans the sweep over the parallel engine without
    changing a byte of the report.
    """
    space = space if space is not None else demo_space()
    query = query if query is not None else CapacityQuery()
    results = run_sweep(
        space,
        seed=seed,
        workers=workers,
        base_config=base_config,
        collector=collector,
    )
    return build_report(space, seed, results, query)
