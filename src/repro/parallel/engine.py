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
- **fault isolation** — a work function runs each item through
  :func:`isolated`, which turns an item that raises into a structured
  error record for that item only; a *lost worker process*
  (``BrokenProcessPool``) triggers a bounded number of pool restarts with
  singleton resubmission, after which every still-in-flight suspect is
  recorded as a structured ``WorkerLost`` failure under its item's
  label (results completed by surviving chunks are kept); only when the
  pool could never be started at all is the remainder finished
  in-process,
- **per-item telemetry** — every result carries its own
  :class:`~repro.telemetry.Telemetry`, which the engine merges into the
  outcome's; on the pool path the engine adds only its own events there
  (``parallel.chunks``, ``parallel.pool_restarts``,
  ``parallel.in_process_items``, ``parallel.workers_lost``).

The campaign (:func:`repro.campaign.solve_items`), the serving
profiler (:func:`repro.serve.profile.profile_items`) and the
design-space sweep (:func:`repro.dse.evaluator.evaluate_items`) each
bring their own ``work_fn`` and label their own items, and each caller
counts its own failures from the records, lost items included.  The
process-pool machinery is imported only when a pool runs, so serial
callers never load it.
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
    "isolated",
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
    telemetry: Telemetry


@dataclass
class ParallelOutcome:
    """Ordered results plus the merged telemetry of the run."""

    results: list[ItemResult]
    telemetry: Telemetry


def isolated(item: WorkItem, run: Callable[[], Any]) -> ItemResult:
    """Run one item's work under a fresh collector, isolating its fault.

    ``run()`` returns the item's record.  An exception becomes the
    item's error record instead, so one failing item cannot take down
    its chunk-mates.  Either way the result carries what the collector
    recorded and is labelled ``item.label``.
    """
    collector = Telemetry()
    entry, error = None, None
    with collector.activate():
        try:
            entry = run()
        except Exception as exc:  # noqa: BLE001 — fault isolation
            error = f"{type(exc).__name__}: {exc}"
    return ItemResult(item.index, entry, error, item.label, collector)


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
    index order with their telemetry merged into the outcome's, and
    the pool path counts its ``parallel.*`` events there.
    """
    telemetry = Telemetry()
    if workers <= 1 or len(items) < 2:
        results = sorted(work_fn(items, config), key=lambda r: r.index)
        for result in results:
            telemetry.merge(result.telemetry)
        return ParallelOutcome(results=results, telemetry=telemetry)

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    if executor_factory is None:
        executor_factory = ProcessPoolExecutor

    pending: dict[int, WorkItem] = {item.index: item for item in items}
    attempts: dict[int, int] = {item.index: 0 for item in items}
    collected: dict[int, ItemResult] = {}

    def collect(result: ItemResult) -> None:
        collected[result.index] = result
        telemetry.merge(result.telemetry)

    def abandon(index: int) -> None:
        # Nothing of a lost item's run came back: its collector is empty.
        collect(ItemResult(
            index=index,
            entry=None,
            error=(
                "WorkerLost: worker process died while this item was in "
                f"flight ({attempts[index]} attempts)"
            ),
            label=pending.pop(index).label,
            telemetry=Telemetry(),
        ))
        telemetry.count("parallel.workers_lost")

    restarts = 0
    while pending and restarts <= max_pool_restarts:
        if restarts == 0:
            if chunk_size is not None:
                n_chunks = -(-len(pending) // max(1, int(chunk_size)))
            else:
                n_chunks = workers * DEFAULT_OVERSUBSCRIPTION
            chunks = shard_by_cost(list(pending.values()), n_chunks)
        else:
            # Singleton resubmission localizes blame for the pool loss.
            chunks = [[item] for item in pending.values()]
        telemetry.count("parallel.chunks", len(chunks))
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
                        pending.pop(result.index, None)
                        collect(result)
                if broke:
                    break
        finally:
            executor.shutdown(wait=not broke, cancel_futures=True)
        if not broke:
            break
        restarts += 1
        telemetry.count("parallel.pool_restarts")
        for index in pending:
            attempts[index] += 1
        for index in [i for i in pending if attempts[i] >= MAX_ITEM_ATTEMPTS]:
            abandon(index)

    if pending and restarts:
        # Restart budget exhausted while these items were in flight:
        # every one of them is a crash suspect (it shared its last pool
        # with a breakage), so retrying it in this process would risk
        # the parent.  Record each as a structured WorkerLost result;
        # results already completed by surviving chunks stay collected.
        for index in sorted(pending):
            abandon(index)
    elif pending:
        # The pool never started at all (OSError before any submission):
        # the items are innocent, so finish them in this process.
        leftovers = sorted(pending.values(), key=lambda it: it.index)
        telemetry.count("parallel.in_process_items", len(leftovers))
        for result in work_fn(leftovers, config):
            collect(result)

    return ParallelOutcome(
        results=[collected[index] for index in sorted(collected)],
        telemetry=telemetry,
    )
