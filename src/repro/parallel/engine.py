"""Worker-pool execution engine for campaign workloads.

Shards a population of problem sources across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

- **cost-aware chunking** — items are greedily packed (longest-processing-
  time-first) into chunks balanced by estimated cost, a proxy for the
  solve's NNZ-driven work, so one heavy matrix does not serialize the
  tail of the campaign,
- **deterministic seeds** — each item carries the seed the campaign
  derived from its position, so parallel runs reproduce the serial run
  entry for entry,
- **ordered reassembly** — workers return results tagged with the item's
  original index; callers always see campaign order,
- **fault isolation** — a solve that raises inside a worker yields a
  structured error record for that item only; a *lost worker process*
  (``BrokenProcessPool``) triggers a bounded number of pool restarts with
  singleton resubmission, after which every still-in-flight suspect is
  recorded as a structured ``WorkerLost`` failure (results completed by
  surviving chunks are kept); only when the pool could never be started
  at all is the remainder finished in-process,
- **per-worker telemetry** — every item is solved under its own
  :class:`~repro.telemetry.Telemetry` collector whose dict form rides
  back with the result for the campaign to merge.

The heavy imports (datasets, solvers) happen lazily inside the worker
function so the module itself stays cheap to import in the parent.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.config import AcamarConfig
from repro.parallel.cost import estimate_cost, source_label
from repro.telemetry import Telemetry

__all__ = [
    "DEFAULT_OVERSUBSCRIPTION",
    "MAX_ITEM_ATTEMPTS",
    "ItemResult",
    "ParallelOutcome",
    "WorkItem",
    "estimate_cost",  # re-exported from repro.parallel.cost
    "run_sharded",
    "shard_by_cost",
    "solve_items",
    "source_label",  # re-exported from repro.parallel.cost
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
    """One schedulable campaign solve."""

    index: int
    source: Any  # str | Path | Problem — kept loose to avoid heavy imports
    seed: int
    cost: float


@dataclass(frozen=True)
class ItemResult:
    """What a worker reports back for one item."""

    index: int
    entry: Any | None  # CampaignEntry on success
    error: str | None
    label: str
    telemetry: dict[str, Any]


@dataclass
class ParallelOutcome:
    """Ordered results plus engine-level statistics."""

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
    then each chunk is restored to campaign (index) order.  Empty chunks
    are dropped, so the result has at most ``n_chunks`` entries.
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


def solve_items(
    items: Sequence[WorkItem], config: AcamarConfig
) -> list[ItemResult]:
    """Worker entry point: solve a chunk of items, isolating each fault.

    Runs in the pool's worker processes (and doubles as the in-process
    fallback path).  Every item gets its own telemetry collector; any
    exception is converted to a structured error record so one diverging
    or crashing solve cannot take down its chunk-mates.
    """
    from repro import telemetry as tm
    from repro.campaign import build_entry, resolve_source

    results: list[ItemResult] = []
    for item in items:
        collector = Telemetry()
        with collector.activate():
            try:
                with tm.span("campaign.resolve"):
                    problem = resolve_source(item.source, item.seed)
                entry = build_entry(problem, config)
                results.append(
                    ItemResult(
                        index=item.index,
                        entry=entry,
                        error=None,
                        label=entry.name,
                        telemetry=collector.as_dict(),
                    )
                )
            except Exception as exc:  # noqa: BLE001 — fault isolation
                tm.count("campaign.failures")
                results.append(
                    ItemResult(
                        index=item.index,
                        entry=None,
                        error=f"{type(exc).__name__}: {exc}",
                        label=source_label(item.source),
                        telemetry=collector.as_dict(),
                    )
                )
    return results


def _lost_worker_result(item: WorkItem, attempts: int) -> ItemResult:
    # A lost worker is a campaign failure exactly like an in-process
    # solve fault, so its result telemetry carries the same
    # ``campaign.failures`` increment the fault-isolation path in
    # :func:`solve_items` records — aggregate failure counts agree no
    # matter which path recorded an item.
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
        label=source_label(item.source),
        telemetry=telemetry.as_dict(),
    )


def run_sharded(
    items: Sequence[WorkItem],
    config: AcamarConfig,
    workers: int,
    chunk_size: int | None = None,
    max_pool_restarts: int = 2,
    executor_factory: Callable[[int], Any] | None = None,
    work_fn: Callable[..., list[ItemResult]] = solve_items,
) -> ParallelOutcome:
    """Solve ``items`` on a worker pool; always returns a full outcome.

    ``executor_factory`` exists for tests (inject a deterministic fake);
    production use leaves it ``None`` for ``ProcessPoolExecutor``.
    ``chunk_size`` caps items per chunk; by default chunk count is
    ``workers * DEFAULT_OVERSUBSCRIPTION``.  ``work_fn`` is the worker
    entry point (``(items, config) -> list[ItemResult]``); it defaults to
    the campaign's :func:`solve_items` and must be a picklable top-level
    function — the serving profiler passes its own
    (:func:`repro.serve.profile.profile_items`) to reuse the pool,
    restart, and reassembly machinery for a different unit of work.
    """
    telemetry = Telemetry()
    outcome = ParallelOutcome(results=[], telemetry=telemetry, workers=workers)
    if not items:
        return outcome
    if executor_factory is None:
        def executor_factory(n: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=n)

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
