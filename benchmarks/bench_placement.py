"""Mixed-fleet placement acceptance benchmark (Table II scenario matrix).

Serves the same four-source trace (two FPGA-favored, two GPU-favored
structural profiles) through three fleets of equal slot count:

- ``fpga_only`` — four FPGA partial-reconfiguration slots,
- ``gpu_only``  — four MPS GPU tenant partitions,
- ``mixed``     — two FPGA slots + two GPU tenants, per-micro-batch
  placement decided by the two cost models.

The acceptance criterion of the placement backend is that the mixed
fleet beats *both* single-backend fleets on device-seconds (and p50)
at every probed rate: heterogeneity must pay for itself, not merely
tie.  The scenario matrix (structural class x winning backend) is
recorded alongside, Table-II-style.  Everything runs on the virtual
clock, so the committed record in ``benchmarks/BENCH_placement.json``
is byte-deterministic and the live record must equal it field for
field.

Regenerate with ``python benchmarks/bench_placement.py`` after an
intentional cost-model change (and say why in the commit).
"""

import json
from pathlib import Path

from repro.experiments.report import ExperimentTable
from repro.fpga import FleetSpec
from repro.serve import LoadSpec, ServiceConfig, run_loadtest

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_placement.json"

SOURCES = ("Wi", "Ga", "Ns", "If")
"""Two FPGA-favored + two GPU-favored registry sources."""

SEED = 11
DURATION_S = 3.0
RATES_RPS = (200.0, 400.0)

FLEETS = {
    "fpga_only": FleetSpec(slots_per_device=4),
    "gpu_only": FleetSpec(slots_per_device=0, gpu_tenants=4),
    "mixed": FleetSpec(slots_per_device=2, gpu_tenants=2),
}


def _mode_record(report) -> dict:
    doc = report.as_dict(include_responses=False)
    record = {
        "p50_ms": doc["latency_ms"]["overall"]["p50"],
        "p99_ms": doc["latency_ms"]["overall"]["p99"],
        "completed": doc["requests"]["completed"],
        "unaccounted": doc["requests"]["unaccounted"],
        "batches": doc["batches"]["count"],
        "device_seconds": doc["fleet"]["device_seconds"],
    }
    if "placement" in doc:
        record["by_class"] = doc["placement"]["by_class"]
        record["scenario_matrix"] = doc["placement"]["scenario_matrix"]
    return record


def measure() -> dict:
    by_rate = {}
    for rate in RATES_RPS:
        spec = LoadSpec(
            seed=SEED,
            duration_s=DURATION_S,
            rate_rps=rate,
            mix="uniform",
            sources=SOURCES,
        )
        records = {
            name: _mode_record(run_loadtest(spec, ServiceConfig(fleet=fleet)))
            for name, fleet in FLEETS.items()
        }
        mixed = records["mixed"]
        records["mixed_wins"] = {
            "device_seconds": bool(
                mixed["device_seconds"] < records["fpga_only"]["device_seconds"]
                and mixed["device_seconds"] < records["gpu_only"]["device_seconds"]
            ),
            "p50": bool(
                mixed["p50_ms"] < records["fpga_only"]["p50_ms"]
                and mixed["p50_ms"] < records["gpu_only"]["p50_ms"]
            ),
        }
        by_rate[f"{rate:.0f}rps"] = records
    return {
        "spec": {
            "seed": SEED,
            "duration_s": DURATION_S,
            "mix": "uniform",
            "sources": list(SOURCES),
            "rates_rps": list(RATES_RPS),
        },
        "fleets": {
            name: {
                "fpga_slots": fleet.slots_per_device,
                "gpu_tenants": fleet.gpu_tenants,
            }
            for name, fleet in FLEETS.items()
        },
        "results": by_rate,
    }


def run() -> tuple[ExperimentTable, dict]:
    report = measure()
    table = ExperimentTable(
        experiment_id="Placement P1",
        title=(
            "Mixed FPGA+GPU fleet vs single-backend fleets "
            f"(seed={SEED}, {DURATION_S:.0f}s, uniform over "
            f"{'/'.join(SOURCES)})"
        ),
        headers=(
            "rate", "fleet", "p50 ms", "p99 ms",
            "device s", "unaccounted",
        ),
    )
    for rate_key, records in report["results"].items():
        for name in FLEETS:
            record = records[name]
            table.add_row(
                rate_key,
                name,
                round(record["p50_ms"], 3),
                round(record["p99_ms"], 3),
                round(record["device_seconds"], 4),
                record["unaccounted"],
            )
    matrix = report["results"]["200rps"]["mixed"]["scenario_matrix"]
    table.add_note(f"scenario matrix (class x winner): {matrix}")
    return table, report


def test_bench_placement(print_table, assert_matches_record):
    table, report = run()
    print_table(table)
    assert_matches_record(report, BENCH_PATH)
    for records in report["results"].values():
        # Accounting invariant holds on every backend.
        for name in FLEETS:
            assert records[name]["unaccounted"] == 0
        # Acceptance: heterogeneity must pay on every probed rate.
        assert records["mixed_wins"]["device_seconds"], (
            "mixed fleet failed to beat both single-backend fleets "
            "on device-seconds"
        )
        assert records["mixed_wins"]["p50"], (
            "mixed fleet failed to beat both single-backend fleets on p50"
        )
        # The decision layer genuinely split the traffic, and the
        # scenario matrix shows both backends winning a class.
        by_class = records["mixed"]["by_class"]
        assert by_class["fpga"] > 0 and by_class["gpu"] > 0
        winners = {
            winner
            for row in records["mixed"]["scenario_matrix"].values()
            for winner, count in row.items()
            if count > 0
        }
        assert {"fpga", "gpu"} <= winners


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
