"""Fan-out engine: one path for serial and pooled work.

:func:`run_sharded` hands a population of :class:`WorkItem` objects to a
worker function, either in this process or across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

- **one serial path** — with one worker, or fewer than two items, the
  work function runs here on the whole population; no pool is built,
- **cost-aware chunking** — items are greedily packed (longest-processing-
  time-first) into chunks balanced by estimated cost, so one heavy item
  does not serialize the tail of the run,
- **deterministic seeds** — each item carries the seed its producer
  derived, so pooled runs reproduce the serial run item for item,
- **ordered reassembly** — workers return results tagged with the item's
  original index; callers always see index order,
- **fault isolation** — a work function turns an item that raises into a
  structured error record for that item only; a *lost worker process*
  (``BrokenProcessPool``) triggers a bounded number of pool restarts with
  singleton resubmission, after which every still-in-flight suspect is
  recorded as a structured ``WorkerLost`` failure under its item's
  label (results completed by surviving chunks are kept); only when the
  pool could never be started at all is the remainder finished
  in-process,
- **per-item telemetry** — every result carries its own telemetry dict,
  which the engine merges into the outcome.

The campaign (:func:`repro.campaign.solve_items`), the serving
profiler (:func:`repro.serve.profile.profile_items`) and the
design-space sweep (:func:`repro.dse.evaluator.evaluate_items`) each
bring their own ``work_fn`` and label their own items.  One piece of
the campaign remains here: a ``WorkerLost`` record counts
``campaign.failures`` and ``campaign.workers_lost`` whichever work
function lost the item.  The process-pool machinery is imported only
when a pool runs, so serial callers never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.config import AcamarConfig
from repro.telemetry import Telemetry

__all__ = [
    "DEFAULT_OVERSUBSCRIPTION",
    "MAX_ITEM_ATTEMPTS",
    "ItemResult",
    "ParallelOutcome",
    "WorkItem",
    "run_sharded",
    "shard_by_cost",
]

DEFAULT_OVERSUBSCRIPTION = 4
"""Chunks per worker in the first scheduling epoch.

More chunks than workers lets the pool rebalance dynamically when cost
estimates are off; fewer, larger chunks amortize task overhead.  Four is
a conventional middle ground.
"""

MAX_ITEM_ATTEMPTS = 2
"""Pool-loss retries per item before it is recorded as a failure."""


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit of work.

    ``source`` is whatever the producer's work function takes (a problem
    source, a design point); ``label`` names the item in its error and
    ``WorkerLost`` records, so a lost item is reported under the name
    its producer gave it.
    """

    index: int
    source: Any
    seed: int
    cost: float
    label: str


@dataclass(frozen=True)
class ItemResult:
    """What a worker reports back for one item."""

    index: int
    entry: Any | None  # the work function's record on success
    error: str | None
    label: str
    telemetry: dict[str, Any]


@dataclass
class ParallelOutcome:
    """Ordered results plus engine-level statistics.

    ``workers`` is 1 when the work ran serially in this process; the
    pool statistics below are then all zero.
    """

    results: list[ItemResult]
    telemetry: Telemetry
    workers: int
    pool_restarts: int = 0
    in_process_items: int = 0
    abandoned_items: int = 0
    chunks: int = 0


def shard_by_cost(
    items: Sequence[WorkItem], n_chunks: int
) -> list[list[WorkItem]]:
    """Pack items into ``n_chunks`` cost-balanced chunks (LPT greedy).

    Items are assigned heaviest-first to the currently lightest chunk,
    then each chunk is restored to index order.  Empty chunks are
    dropped, so the result has at most ``n_chunks`` entries.
    """
    n_chunks = max(1, min(int(n_chunks), len(items)))
    chunks: list[list[WorkItem]] = [[] for _ in range(n_chunks)]
    loads = [0.0] * n_chunks
    for item in sorted(items, key=lambda it: (-it.cost, it.index)):
        target = loads.index(min(loads))
        chunks[target].append(item)
        loads[target] += item.cost
    packed = [sorted(chunk, key=lambda it: it.index) for chunk in chunks]
    return [chunk for chunk in packed if chunk]


def _lost_worker_result(item: WorkItem, attempts: int) -> ItemResult:
    # The counters keep the campaign's names for every work function:
    # a lost campaign item then counts ``campaign.failures`` exactly as
    # an in-process fault does, while a lost sweep point or profiling
    # item counts it too, instead of its own layer's failure counter.
    telemetry = Telemetry()
    telemetry.count("campaign.failures")
    telemetry.count("campaign.workers_lost")
    return ItemResult(
        index=item.index,
        entry=None,
        error=(
            "WorkerLost: worker process died while this item was in "
            f"flight ({attempts} attempts)"
        ),
        label=item.label,
        telemetry=telemetry.as_dict(),
    )


def run_sharded(
    items: Sequence[WorkItem],
    config: AcamarConfig,
    workers: int,
    *,
    work_fn: Callable[..., list[ItemResult]],
    chunk_size: int | None = None,
    max_pool_restarts: int = 2,
    executor_factory: Callable[[int], Any] | None = None,
) -> ParallelOutcome:
    """Run ``work_fn`` over ``items``; always returns a full outcome.

    ``work_fn`` is the worker entry point, ``(items, config) ->
    list[ItemResult]``, one result per item; for a pool it must be a
    picklable top-level function (``repro lint`` rule REP008 checks
    every call).  With ``workers <= 1``, or fewer than two items, it is
    called once in this process on all of ``items``.  Otherwise the
    items run on a worker pool: ``chunk_size`` caps items per chunk (by
    default the chunk count is ``workers * DEFAULT_OVERSUBSCRIPTION``),
    and ``executor_factory`` exists for tests and the chaos harness
    (inject a deterministic fake; ``None`` builds a
    ``ProcessPoolExecutor``).  Either way the results come back in
    index order with their telemetry merged into the outcome's.
    """
    telemetry = Telemetry()
    if workers <= 1 or len(items) < 2:
        results = sorted(work_fn(items, config), key=lambda r: r.index)
        for result in results:
            telemetry.merge(result.telemetry)
        return ParallelOutcome(results=results, telemetry=telemetry, workers=1)

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    outcome = ParallelOutcome(results=[], telemetry=telemetry, workers=workers)
    if executor_factory is None:
        executor_factory = ProcessPoolExecutor

    pending: dict[int, WorkItem] = {item.index: item for item in items}
    attempts: dict[int, int] = {item.index: 0 for item in items}
    collected: dict[int, ItemResult] = {}
    epoch = 0
    pool_ever_broke = False

    while pending and outcome.pool_restarts <= max_pool_restarts:
        if epoch == 0:
            if chunk_size is not None:
                n_chunks = -(-len(pending) // max(1, int(chunk_size)))
            else:
                n_chunks = workers * DEFAULT_OVERSUBSCRIPTION
            chunks = shard_by_cost(list(pending.values()), n_chunks)
        else:
            # Singleton resubmission localizes blame for the pool loss.
            chunks = [[item] for item in pending.values()]
        outcome.chunks += len(chunks)
        epoch += 1
        broke = False
        try:
            executor = executor_factory(workers)
        except OSError:
            break  # cannot start workers at all → in-process fallback
        try:
            futures = {
                executor.submit(work_fn, tuple(chunk), config): chunk
                for chunk in chunks
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        batch = future.result()
                    except BrokenProcessPool:
                        broke = True
                        continue
                    for result in batch:
                        collected[result.index] = result
                        pending.pop(result.index, None)
                        telemetry.merge(result.telemetry)
                if broke:
                    break
        finally:
            executor.shutdown(wait=not broke, cancel_futures=True)
        if broke:
            pool_ever_broke = True
            outcome.pool_restarts += 1
            for index in pending:
                attempts[index] += 1
            exhausted = [
                index
                for index, item in pending.items()
                if attempts[index] >= MAX_ITEM_ATTEMPTS
            ]
            for index in exhausted:
                item = pending.pop(index)
                result = _lost_worker_result(item, attempts[index])
                collected[index] = result
                outcome.abandoned_items += 1
                telemetry.merge(result.telemetry)
        else:
            break

    if pending and pool_ever_broke:
        # Restart budget exhausted while these items were in flight:
        # every one of them is a crash suspect (it shared its last pool
        # with a breakage), so retrying it in this process would risk
        # the parent.  Record each as a structured WorkerLost result;
        # results already completed by surviving chunks stay collected.
        for index in sorted(pending):
            item = pending.pop(index)
            result = _lost_worker_result(item, attempts[index])
            collected[index] = result
            outcome.abandoned_items += 1
            telemetry.merge(result.telemetry)
    elif pending:
        # The pool never started at all (OSError before any submission):
        # the items are innocent, so finish them in this process.
        leftovers = sorted(pending.values(), key=lambda it: it.index)
        outcome.in_process_items += len(leftovers)
        for result in work_fn(leftovers, config):
            collected[result.index] = result
            telemetry.merge(result.telemetry)

    outcome.results = [collected[index] for index in sorted(collected)]
    return outcome
