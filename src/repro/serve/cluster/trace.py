"""Array-native request traces: the one traffic generator of both tiers.

A ``--duration 3600 --rate 10000`` run is ~36 million requests.  One
``SolveRequest`` object per arrival would need tens of gigabytes and
minutes of allocation alone, so the cluster tier keeps the whole trace
as a struct-of-arrays :class:`RequestTrace`:

- ``arrival_s``  — float64, sorted, rounded to 9 decimals (the repo's
  virtual-timestamp precision),
- ``source_idx`` — int16 index into ``sources`` (the unique key list),
- ``priority``   — int8 :class:`~repro.serve.api.Priority` value,
- ``deadline_s`` — float64 absolute deadline, ``+inf`` meaning none.

Generation is fully vectorized over the traffic model of a
:class:`~repro.serve.loadgen.LoadSpec`:
:func:`repro.serve.loadgen.source_weights` for the dataset mix,
``PRIORITY_SHARES`` for the class split, Poisson arrivals with the
square-wave bursts of ``BURST_FACTOR``, ``BURST_S`` and
``BURST_PERIOD_S``.  The single-fleet tier serves the same rows as
request objects (:func:`repro.serve.loadgen.generate_requests`), so
"repeat-heavy at 120 rps" is one workload at either tier.  Bursty
arrivals use exact thinning: draw a homogeneous Poisson process at the
peak rate, then keep each arrival with probability ``rate(t) / peak``.
One seeded PCG64 generator drives everything, so a seed fully
determines the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.serve.api import PRIORITY_NAMES, Priority
from repro.serve.loadgen import (
    BURST_FACTOR,
    BURST_PERIOD_S,
    BURST_S,
    PRIORITY_SHARES,
    LoadSpec,
    source_weights,
)

NO_DEADLINE = np.inf
"""Sentinel in ``deadline_s`` for requests without a deadline."""

_GAP_BLOCK = 262_144
"""Exponential gaps are drawn in blocks of this size until the horizon
is covered — a handful of vectorized draws even at 36M arrivals."""


@dataclass
class RequestTrace:
    """Struct-of-arrays request log; row ``i`` is request id ``i``.

    :func:`generate_trace` returns the four arrays read-only, so one
    trace can drive many simulations (the DSE sweep shares one per
    traffic regime) without any of them changing what the next sees.
    """

    sources: tuple[str, ...]
    arrival_s: np.ndarray
    source_idx: np.ndarray
    priority: np.ndarray
    deadline_s: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.arrival_s.shape[0])

    def priority_counts(self) -> dict[str, int]:
        counts = np.bincount(self.priority, minlength=len(Priority))
        return {
            PRIORITY_NAMES[p]: int(counts[p.value]) for p in Priority
        }

    def source_counts(self) -> dict[str, int]:
        counts = np.bincount(self.source_idx, minlength=len(self.sources))
        return {
            key: int(counts[i]) for i, key in enumerate(self.sources)
        }


def _block_times(
    gaps: np.ndarray, start: float, horizon: float, rate: float
) -> np.ndarray:
    """A prefix of ``start + np.cumsum(gaps)`` that reaches ``horizon``,
    or all of it when none does.

    The cumulative sum of a prefix is the prefix of the cumulative sum,
    so summing only the first gaps gives exactly the leading times.
    The prefix holds twice the expected number of arrivals at ``rate``
    plus 64; when that falls short of the horizon, the whole block is
    summed.
    """
    size = 2 * int((horizon - start) * rate) + 64
    if size < gaps.shape[0]:
        times = start + np.cumsum(gaps[:size])
        if times[-1] >= horizon:
            return times
    return start + np.cumsum(gaps)


def _arrivals(spec: LoadSpec, rng: np.random.Generator) -> np.ndarray:
    """Sorted arrival timestamps over ``[0, duration_s)``.

    Every block of gaps is drawn whole, because the draws are part of
    the seeded stream the source and priority draws continue, but only
    summed up to the horizon (:func:`_block_times`).  The gaps are
    non-negative, so the times never decrease and the arrivals before
    the horizon are a prefix of them.
    """
    bursty = spec.mix == "bursty"
    peak = spec.rate_rps * (BURST_FACTOR if bursty else 1.0)
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < spec.duration_s:
        gaps = rng.exponential(1.0 / peak, size=_GAP_BLOCK)
        times = _block_times(gaps, t, spec.duration_s, peak)
        t = float(times[-1])
        chunks.append(times)
    arrivals = np.concatenate(chunks)
    arrivals = arrivals[: np.searchsorted(arrivals, spec.duration_s)]
    if bursty:
        # Exact thinning of the peak-rate process: accept with
        # probability rate(t)/peak.  In-burst phases accept everything;
        # off-burst phases accept 1/BURST_FACTOR.
        phase = arrivals % BURST_PERIOD_S
        accept_p = np.where(phase < BURST_S, 1.0, 1.0 / BURST_FACTOR)
        arrivals = arrivals[rng.random(arrivals.shape[0]) < accept_p]
    return np.round(arrivals, 9)


def generate_trace(spec: LoadSpec) -> RequestTrace:
    """Produce the full arrival-ordered trace for ``spec``."""
    if spec.sources:
        keys: tuple[str, ...] = tuple(spec.sources)
    else:
        from repro.datasets.suite import dataset_keys

        keys = dataset_keys()
    rng = np.random.default_rng(spec.seed)
    arrivals = _arrivals(spec, rng)
    n = arrivals.shape[0]
    weights = source_weights(spec.mix, len(keys))
    source_idx = rng.choice(
        len(keys), size=n, p=weights
    ).astype(np.int16)
    priority_values = np.array(
        [p.value for p, _ in PRIORITY_SHARES], dtype=np.int8
    )
    priority_weights = np.array([w for _, w in PRIORITY_SHARES])
    priority = priority_values[
        rng.choice(len(priority_values), size=n, p=priority_weights)
    ]
    deadline = np.full(n, NO_DEADLINE)
    interactive = priority == Priority.INTERACTIVE.value
    deadline[interactive] = np.round(
        arrivals[interactive] + spec.deadline_ms * 1e-3, 9
    )
    for array in (arrivals, source_idx, priority, deadline):
        array.flags.writeable = False
    return RequestTrace(
        sources=keys,
        arrival_s=arrivals,
        source_idx=source_idx,
        priority=priority,
        deadline_s=deadline,
        meta=spec.as_dict(),
    )
