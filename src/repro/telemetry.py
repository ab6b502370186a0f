"""Span/counter telemetry for the accelerator's decision loops.

Production campaigns need to know *where* wall-time goes — structure
inspection, unroll planning, solver attempts, cost modeling — without a
profiler attached.  This module provides a deliberately small telemetry
layer:

- :class:`Telemetry` collects **spans** (named wall-time intervals with
  count / total / max statistics) and **counters** (monotonic integers),
  and nothing else: its size grows with the number of names, never with
  traffic,
- instrumented code calls the module-level :func:`span` and :func:`count`
  helpers, which are no-ops unless a collector is *activated* on the
  current context (a ``contextvars.ContextVar``, so parallel campaign
  workers and threads each aggregate into their own collector),
- collectors merge associatively (:meth:`Telemetry.merge`), which is how
  the fan-out engine folds each work item's collector into one,
- :meth:`Telemetry.as_dict` emits the stable JSON schema documented in
  ``docs/operations.md`` (``TELEMETRY_SCHEMA_VERSION`` guards it); every
  command's ``--telemetry`` file is that document.

The instrumented sites are the Solver Decision loop and Fine-Grained
Reconfiguration unit (:mod:`repro.core`) and the FPGA cost model
(:mod:`repro.fpga.cost_model`); the campaign runner adds per-problem
resolve/solve spans on top.

A counter counts what no report records.  A component that writes a
report states its counts there and does not count them again here: the
serving and cluster reports already hold their requests, sheds,
batches, cache lookups, routing and autoscaler decisions, and the DSE
and campaign reports their points and failures.  What is left is the
decision-loop events, the fan-out engine's pool events, the chaos
injection ledger and the few counts no report field states.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

TELEMETRY_SCHEMA_VERSION = 1

# -- the telemetry name registry ----------------------------------------
#
# Every span and counter name recorded anywhere in repro MUST be
# listed here; the REP005 lint rule (repro.analysis) enforces that
# call sites pass registered string literals.  The registry is the
# single source of truth the operations docs and dashboards key on —
# adding a name here is a schema decision, not a formality.

KNOWN_SPANS = frozenset({
    # campaign runner
    "campaign.run",
    "campaign.resolve",
    "campaign.solve",
    "campaign.cost_model",
    # experiment runner
    "runner.load_problem",
    "runner.acamar_solve",
    "runner.portfolio_solve",
    # decision loops (repro.core)
    "matrix_structure.select",
    "reconfigurable_solver.attempt",
    "fine_grained.plan",
    # kernels and cost model
    "kernel.spmv",
    "kernel.rmatvec",
    "cost_model.acamar_latency",
    # serving profiler (wall-clock side only; the serving report itself
    # is virtual-clock and never records spans)
    "serve.profile.resolve",
    "serve.profile.solve",
    "serve.profile.cost_model",
    # design-space explorer (repro.dse): wall-clock cost of evaluating
    # one fleet design point end-to-end (the report itself carries only
    # virtual-clock and modeled quantities)
    "dse.point_eval",
})
"""Sanctioned span names (wall-time intervals)."""

KNOWN_COUNTERS = frozenset({
    # decision-loop events
    "solver_swaps",
    "spmv_reconfig_events",
    "msid_events_removed",
    # fan-out engine (repro.parallel), pool path only
    "parallel.chunks",
    "parallel.pool_restarts",
    "parallel.in_process_items",
    "parallel.workers_lost",
    # serving profiler: sources whose profiling solve raised
    "serve.profile_failures",
    # fault-injection harness (repro.faults): every injected event is
    # counted, so a chaos report can reconcile injected vs. observed;
    # a fleet outage is not, since the cluster report's fleet members
    # state their outages
    "faults.injected.worker_death",
    "faults.injected.worker_stall",
    "faults.injected.divergence",
    "faults.injected.reconfig_stall",
    "faults.injected.deadline_storm",
    "faults.injected.device_outage",
    "faults.injected.forced_scale",
    # design-space explorer (repro.dse): the cluster runs that answered
    # the evaluated points and the real solves their profiles ran
    "dse.simulations",
    "dse.profile_solves",
    # heterogeneous placement: cold analyses offloaded to the CPU-assist
    # tier
    "placement.cpu_assist_offloads",
})
"""Sanctioned monotonic counter names."""

KNOWN_COUNTER_PREFIXES = frozenset({
    "solver_attempts.",
})
"""Sanctioned *dynamic counter families*: a counter name may be built at
runtime only when it starts with one of these prefixes (e.g. the
per-solver ``solver_attempts.<name>`` family the campaign report
aggregates).  Everything else must be a registered literal."""


_ACTIVE: ContextVar["Telemetry | None"] = ContextVar(
    "repro_telemetry", default=None
)


@dataclass
class SpanStats:
    """Aggregate statistics of one named span."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def record(self, elapsed_ms: float) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)

    def merged_with(self, other: "SpanStats") -> "SpanStats":
        return SpanStats(
            count=self.count + other.count,
            total_ms=self.total_ms + other.total_ms,
            max_ms=max(self.max_ms, other.max_ms),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_ms": round(self.total_ms, 6),
            "mean_ms": round(self.mean_ms, 6),
            "max_ms": round(self.max_ms, 6),
        }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100]).

    Works on plain lists (the cluster autoscaler's queue-depth window,
    read as ``queue_depth_p90``).  It interpolates between the same two
    order statistics at the same fraction as ``numpy.percentile``'s
    default method, but evaluates ``low * (1 - f) + high * f``, so the
    result can differ from numpy's in the last bit:
    ``percentile([0.0, 1.0, 3.0], 90.0)`` is ``2.6000000000000005``
    where numpy returns ``2.6``.  Swapping in numpy can therefore move
    an autoscaler decision.  Returns 0.0 for an empty list — callers
    that must distinguish "no data" from "zero" check emptiness
    themselves.
    """
    if not values:
        return 0.0
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return float(data[low] * (1.0 - frac) + data[high] * frac)


class _Span:
    """Times one ``with`` block into its collector's :class:`SpanStats`.

    A slotted object, not a ``@contextmanager`` generator: a solve opens
    one per SpMV, and a generator frame costs several times as much.
    """

    __slots__ = ("collector", "name", "start")

    def __init__(self, collector: "Telemetry", name: str) -> None:
        self.collector = collector
        self.name = name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self.collector.record_span(
            self.name, (time.perf_counter() - self.start) * 1e3
        )


_NO_SPAN = nullcontext()
"""The span returned when no collector is active: it times nothing."""


class Telemetry:
    """One collector of spans and counters.

    Instances are cheap and pickle as they are; the fan-out engine runs
    each work item under its own and merges them.  Activation installs
    the instance on the current execution context so library code can
    record without plumbing.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}

    # -- recording -----------------------------------------------------

    def span(self, name: str) -> _Span:
        """Time a ``with`` block under ``name``."""
        return _Span(self, name)

    def record_span(self, name: str, elapsed_ms: float) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.record(elapsed_ms)

    def count(self, name: str, increment: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(increment)

    # -- activation ----------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Telemetry"]:
        """Install this collector on the current context."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # -- aggregation ---------------------------------------------------

    def merge(self, other: "Telemetry") -> None:
        """Fold another collector into this one."""
        for name, stats in other.spans.items():
            mine = self.spans.setdefault(name, SpanStats())
            self.spans[name] = mine.merged_with(stats)
        for name, value in other.counters.items():
            self.count(name, value)

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "spans": {
                name: stats.as_dict()
                for name, stats in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path


# -- module-level recording API (no-ops without an active collector) ----


def active() -> Telemetry | None:
    """The collector installed on the current context, if any."""
    return _ACTIVE.get()


def span(name: str) -> _Span | nullcontext[None]:
    """Time a block under ``name`` on the active collector (no-op if none)."""
    collector = _ACTIVE.get()
    if collector is None:
        return _NO_SPAN
    return _Span(collector, name)


def count(name: str, increment: int = 1) -> None:
    """Bump counter ``name`` on the active collector (no-op if none)."""
    collector = _ACTIVE.get()
    if collector is not None:
        collector.count(name, increment)

