"""Fan-out execution: one path for serial and worker-pool runs.

The campaign runner, the serving profiler and the design-space sweep
each hand a population of independent work items to
:func:`run_sharded`, which runs them in this process or spreads them
across a process pool — the software analogue of the paper's point that
end-to-end throughput comes from overlapping *independent* solves
across compute units.
"""

from repro.parallel.engine import (
    ItemResult,
    ParallelOutcome,
    WorkItem,
    run_sharded,
    shard_by_cost,
)

__all__ = [
    "ItemResult",
    "ParallelOutcome",
    "WorkItem",
    "run_sharded",
    "shard_by_cost",
]
