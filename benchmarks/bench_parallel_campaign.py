"""Worker-pool scaling of the campaign engine on the Table II suite.

The parallel engine exists to convert independent solves into wall-clock
throughput (the campaign analogue of the paper's resource-utilization
argument).  This bench runs the full 25-dataset suite — repeated
``REPEAT`` times so pool startup is amortized the way a production
campaign would amortize it — serially and at 2/4 workers, asserts the
parallel reports are entry-for-entry identical to the serial one, and
reports the speedup.  One untimed campaign runs first, so every leg
starts with the stand-in matrices built.  The ≥2× scaling assertion
engages when the host actually has ≥4 CPUs (CI runners do; smaller
hosts skip it).
"""

import os

from repro.campaign import run_campaign
from repro.datasets import dataset_keys
from repro.experiments.report import ExperimentTable

REPEAT = 3
WORKER_COUNTS = (2, 4)
SPEEDUP_TARGET = 2.0


def wall_seconds(report):
    """The campaign's fan-out wall time, from its ``campaign.run`` span."""
    return report.telemetry.spans["campaign.run"].total_ms / 1e3


def signature(report):
    return [
        (e.name, e.converged, e.iterations, e.solver_sequence)
        for e in report.entries
    ]


def run() -> ExperimentTable:
    sources = list(dataset_keys()) * REPEAT
    table = ExperimentTable(
        experiment_id="Scaling S1",
        title=(
            f"Parallel campaign scaling ({len(sources)} solves, "
            f"host cpus={os.cpu_count()})"
        ),
        headers=("workers", "wall s", "speedup", "identical to serial"),
    )
    # Untimed warm-up: the first campaign in a process pays the cold
    # stand-in builds (``load_matrix`` caches them), which the forked
    # pool workers then inherit, so whichever leg ran first would pay
    # them alone.
    run_campaign(dataset_keys())
    serial = run_campaign(sources)
    serial_wall = wall_seconds(serial)
    serial_signature = signature(serial)
    table.add_row(1, round(serial_wall, 3), 1.0, True)
    for workers in WORKER_COUNTS:
        report = run_campaign(sources, workers=workers)
        wall = wall_seconds(report)
        table.add_row(
            workers,
            round(wall, 3),
            round(serial_wall / wall, 2),
            signature(report) == serial_signature,
        )
    return table


def test_bench_parallel_campaign(print_table):
    table = run()
    print_table(table)
    assert all(table.column("identical to serial")), (
        "parallel campaign diverged from the serial reference"
    )
    speedups = dict(zip(table.column("workers"), table.column("speedup")))
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert speedups[4] >= SPEEDUP_TARGET, (
            f"expected ≥{SPEEDUP_TARGET}× at 4 workers, got {speedups[4]}×"
        )
