"""Heap-based timer wheel: the cluster simulator's event loop.

The single-fleet simulator (:mod:`repro.serve.service`) walks fixed
ticks, which is fine at hundreds of requests per second but hopeless at
cluster scale — a ``--duration 3600 --rate 10000`` trace is 36 million
arrivals, and a per-request (or per-tick) Python loop would take hours.
The cluster loop therefore inverts the design:

- **sparse events on a heap** — epoch boundaries, fleet faults,
  recoveries and forced scale actions are the only discrete events; the
  wheel pops them in virtual-time order, and
- **vectorized batches between events** — request arrivals live in
  numpy arrays (:class:`~repro.serve.cluster.trace.RequestTrace`) and
  are consumed per epoch via ``searchsorted`` slices, never touched
  one Python object at a time.

Determinism: ties on ``at_s`` break on a monotone sequence number
assigned at push time, so the pop order is a pure function of the push
order — no identity hashes, no insertion-into-dict races.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

EVENT_EPOCH = "epoch"
"""Periodic boundary: drain arrivals, dispatch, evaluate the autoscaler."""

EVENT_FLEET_FAULT = "fleet_fault"
"""A whole fleet goes dark (chaos injection)."""

EVENT_FLEET_RECOVER = "fleet_recover"
"""A faulted fleet comes back and may rejoin the ring."""

EVENT_FORCED_SCALE = "forced_scale"
"""Chaos-driven membership change (flapping join / forced drain)."""


@dataclass(frozen=True, order=True)
class TimerEvent:
    """One scheduled occurrence on the virtual clock.

    Ordering is ``(at_s, seq)``; ``kind``/``payload`` are excluded from
    comparisons so heap order never depends on payload contents.
    """

    at_s: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class TimerWheel:
    """Min-heap of :class:`TimerEvent` with deterministic tie-breaks."""

    def __init__(self) -> None:
        self._heap: list[TimerEvent] = []
        self._seq = 0
        self.popped = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, at_s: float, kind: str, payload: Any = None) -> None:
        event = TimerEvent(
            at_s=round(float(at_s), 9), seq=self._seq, kind=kind,
            payload=payload,
        )
        self._seq += 1
        heapq.heappush(self._heap, event)

    def pop(self) -> TimerEvent:
        self.popped += 1
        return heapq.heappop(self._heap)
