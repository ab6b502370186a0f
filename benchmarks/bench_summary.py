"""The reproduction's bottom line: every paper claim, checked at once.

Alongside the paper-claim summary, this module renders the repo's own
*performance trajectory* — the headline ratio of each committed
optimization record (``BENCH_hotpath.json``, ``BENCH_serving.json``,
``BENCH_cluster.json``, ``BENCH_dse.json``, ``BENCH_placement.json``)
in one table, each checked against the acceptance floor its own
benchmark enforces.  The table reads committed records only; regenerate
a record with its benchmark's ``main()`` before expecting the row to
move.
"""

import json
from pathlib import Path

from repro.experiments.report import ExperimentTable
from repro.experiments.summary import run

BENCH_DIR = Path(__file__).resolve().parent


def _load(name: str) -> dict:
    with open(BENCH_DIR / name) as fh:
        return json.load(fh)


def perf_trajectory() -> ExperimentTable:
    """One row per committed optimization record: ratio vs its floor."""
    hotpath = _load("BENCH_hotpath.json")
    serving = _load("BENCH_serving.json")
    cluster = _load("BENCH_cluster.json")
    dse = _load("BENCH_dse.json")
    placement = _load("BENCH_placement.json")
    table = ExperimentTable(
        experiment_id="PERF",
        title="Performance trajectory (committed BENCH records)",
        headers=("stage", "metric", "ratio", "floor", "holds"),
    )
    rows = (
        (
            "hotpath",
            "bicgstab solve speedup",
            float(hotpath["families"]["bicgstab"]["speedup"]),
            2.0,
        ),
        (
            "serving",
            "warm-cache p50 speedup",
            float(serving["p50_speedup"]),
            2.0,
        ),
        (
            "cluster",
            "slot-seconds saving vs static",
            float(cluster["slot_seconds_saving"]),
            0.5,
        ),
        (
            "dse",
            "frontier best GFLOPS/W",
            float(dse["best_gflops_per_watt"]),
            5.0,
        ),
        (
            "placement",
            "device-seconds saving vs best single backend",
            float(
                min(
                    rec["device_seconds"]
                    for name, rec in
                    placement["results"]["400rps"].items()
                    if name in ("fpga_only", "gpu_only")
                )
                / placement["results"]["400rps"]["mixed"]["device_seconds"]
            ),
            1.0,
        ),
    )
    for stage, metric, ratio, floor in rows:
        table.add_row(stage, metric, ratio, floor, ratio >= floor)
    table.add_note(
        "each floor is the acceptance bound the stage's own benchmark "
        "guards; see bench_hot_path / bench_serving / bench_cluster / "
        "bench_dse / bench_placement"
    )
    return table


def test_bench_summary(benchmark, print_table):
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(table)
    assert all(table.column("holds")), "a paper claim no longer holds"


def test_perf_trajectory(print_table):
    table = perf_trajectory()
    print_table(table)
    assert all(table.column("holds")), (
        "a committed optimization record fell below its acceptance floor"
    )
