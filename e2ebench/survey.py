"""Survey the seed population behind ``workloads.input_seed``.

Runs one checked pass of each workload per seed of
``range(SEED_POPULATION)`` and prints, per seed, the failed operations
and the solver iterations of the pass, then the seeds to list in
``workloads.ATYPICAL_SEEDS``: those where an operation fails, or where a
pass needs more than ``WORK_LIMIT`` times the median seed's iterations.

    python3 e2ebench/survey.py [--workloads solve-65k,table2-campaign]

It takes about ten minutes for all four workloads.
"""

import argparse
import os
import statistics
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SEED_POPULATION, WORKLOADS, SolveLog  # noqa: E402

WORK_LIMIT = 1.25


def survey(name: str) -> dict[int, tuple[int, int]]:
    """seed -> (failed operations, solver iterations) of one pass."""
    workload = WORKLOADS[name]()
    rows = {}
    for seed in range(SEED_POPULATION):
        args = workload.prepare(workload.build(seed))
        log = SolveLog()
        with log.recording():
            output = workload.execute(args)
        result = workload.evaluate(output, log)
        rows[seed] = (result.failed, result.solver_iterations)
        print(f"{name} seed {seed}: {result.failed} failed, "
              f"{result.solver_iterations} iterations", flush=True)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    names = parser.parse_args().workloads.split(",")
    atypical = set()
    for name in names:
        rows = survey(name)
        median = statistics.median(work for _, work in rows.values())
        atypical |= {seed for seed, (failed, work) in rows.items()
                     if failed or work > WORK_LIMIT * median}
    print(f"ATYPICAL_SEEDS = frozenset({sorted(atypical)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
