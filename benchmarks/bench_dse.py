"""DSE acceptance benchmark: the explorer must answer the capacity question.

One full sweep of the committed demo space (``repro dse --seed 0``:
32 fleet shapes x 2 traffic regimes through the virtual-clock cluster
simulator) feeds ``benchmarks/BENCH_dse.json``:

- the **Pareto frontier** over p99 latency, device-seconds, area-mm²,
  reconfiguration rate and GFLOPS/W (energy efficiency populated by the
  fleet-level energy model),
- the **capacity answer** — cheapest configuration meeting the default
  SLO (p99 <= 50 ms) at the default arrival rate (400 rps).

Everything except ``points_per_s`` (sweep wall-clock throughput, left
out of the comparison) is byte-deterministic per seed, so the live
record must equal the committed one field for field, and the
``dse-smoke`` CI job additionally ``cmp``s two full reports.

Regenerate the committed record with ``python benchmarks/bench_dse.py``
after an intentional model change (and say why in the commit).
"""

import json
import time
from pathlib import Path

from repro.dse import run_dse
from repro.experiments.report import ExperimentTable

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_dse.json"

SEED = 0

GFLOPS_PER_WATT_FLOOR = 5.0
"""Acceptance floor: the best design point's energy efficiency."""


def measure() -> dict:
    started = time.perf_counter()
    report = run_dse(seed=SEED)
    elapsed = time.perf_counter() - started
    doc = report.as_dict()
    by_id = {record["id"]: record for record in doc["points"]}
    frontier = [
        {
            "id": identity,
            "solver_mix": by_id[identity]["shape"]["solver_mix"],
            "p99_ms": by_id[identity]["metrics"]["p99_ms"],
            "device_seconds": by_id[identity]["metrics"][
                "device_seconds"
            ],
            "area_mm2": by_id[identity]["metrics"]["area_mm2"],
            "reconfig_rate_per_s": by_id[identity]["metrics"][
                "reconfig_rate_per_s"
            ],
            "gflops_per_watt": by_id[identity]["metrics"][
                "gflops_per_watt"
            ],
        }
        for identity in doc["frontier"]
    ]
    return {
        "space": {
            "seed": SEED,
            "shapes": len(report.space.shapes),
            "traffic_specs": len(report.space.traffic),
            "points": len(report.space),
        },
        "evaluated": doc["dse"]["evaluated"],
        "failed": doc["dse"]["failed"],
        "frontier": frontier,
        "capacity": doc["capacity"],
        "points_per_s": round(len(report.space) / elapsed, 1),
    }


def run() -> tuple[ExperimentTable, dict]:
    report = measure()
    table = ExperimentTable(
        experiment_id="DSE",
        title=(
            "Fleet design-space exploration "
            f"(seed={SEED}, {report['space']['shapes']} shapes x "
            f"{report['space']['traffic_specs']} regimes)"
        ),
        headers=(
            "frontier point", "p99 ms", "dev-s", "mm2", "cfg/s",
            "GFLOPS/W",
        ),
    )
    for record in report["frontier"]:
        table.add_row(
            record["id"],
            round(record["p99_ms"], 3),
            round(record["device_seconds"], 4),
            round(record["area_mm2"], 3),
            round(record["reconfig_rate_per_s"], 2),
            round(record["gflops_per_watt"], 3),
        )
    cheapest = report["capacity"]["cheapest"]
    query = report["capacity"]["query"]
    if cheapest is None:
        table.add_note(
            "capacity: no feasible configuration for "
            f"p99 <= {query['slo_p99_ms']:g} ms at "
            f">= {query['rate_rps']:g} rps"
        )
    else:
        table.add_note(
            f"capacity: {cheapest['id']} is the cheapest fleet meeting "
            f"p99 <= {query['slo_p99_ms']:g} ms at "
            f">= {query['rate_rps']:g} rps "
            f"({cheapest['fabric_mm2_seconds']:.3f} mm2-s)"
        )
    return table, report


def test_bench_dse(print_table, assert_matches_record):
    table, report = run()
    print_table(table)
    assert_matches_record(report, BENCH_PATH)
    # Sweep integrity: every point evaluated, none failed.
    assert report["evaluated"] == report["space"]["points"]
    assert report["failed"] == 0
    # Frontier acceptance: non-trivial (real trade-offs survive), with
    # the energy objective populated, and the paper's default solver
    # mix on the frontier — the headline sanity check.
    assert len(report["frontier"]) >= 3
    assert all(
        record["gflops_per_watt"] > 0 for record in report["frontier"]
    )
    assert any(
        record["solver_mix"] == "paper-default"
        for record in report["frontier"]
    )
    assert (
        max(record["gflops_per_watt"] for record in report["frontier"])
        >= GFLOPS_PER_WATT_FLOOR
    )
    # Capacity acceptance: the default query has a feasible answer
    # that meets its SLO.
    cheapest = report["capacity"]["cheapest"]
    assert cheapest is not None
    assert cheapest["p99_ms"] <= report["capacity"]["query"]["slo_p99_ms"]


def main() -> int:  # pragma: no cover - CLI
    table, report = run()
    with open(BENCH_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(table.to_text())
    print(f"written: {BENCH_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
