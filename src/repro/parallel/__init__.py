"""Parallel campaign execution: worker-pool sharding with fault isolation.

The campaign runner (:mod:`repro.campaign`) solves a whole workload
population; this package spreads that population across a process pool —
the software analogue of the paper's point that end-to-end throughput
comes from overlapping *independent* solves across compute units.
"""

from repro.parallel.cost import estimate_cost, source_label
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
    "estimate_cost",
    "run_sharded",
    "shard_by_cost",
    "source_label",
]
