"""Admission control: a bounded queue with explicit backpressure.

An online service must prefer *refusing* work over unbounded queue
growth: a shed response costs the client one retry, while an unbounded
queue costs every client compounding latency until the process dies.
The controller enforces:

- a **hard queue capacity** — when full, an incoming request is either
  refused (``queue_full``) or, if it outranks queued work, admitted by
  **preempting** the lowest-priority, youngest queued request (which
  then receives its own shed response: nothing is dropped silently),
- **deadline feasibility** — a request whose deadline already passed
  (:func:`deadline_lapsed`) is shed at admission rather than occupying
  queue space it cannot use,
- queued requests whose deadline lapses before dispatch are **expired**
  by the scheduler sweep, again with an explicit response.

The queue is kept sorted on :func:`_queue_key`, so an admission is one
binary-search insert and the preemption victim is always the last entry.
The controller also keeps a lower bound on the queued deadlines, so the
expiry sweep returns at once on the ticks where nothing can lapse.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field

from repro import telemetry as tm
from repro.errors import ConfigurationError
from repro.serve.api import SolveRequest


class AdmissionVerdict(enum.Enum):
    ADMITTED = "admitted"
    SHED_QUEUE_FULL = "queue_full"
    # A lapsed deadline; the value is the shed response's ``detail``.
    SHED_DEADLINE = "deadline_unmeetable"


def deadline_lapsed(deadline_s: float | None, now: float) -> bool:
    """Has this deadline already passed at ``now``?

    The boundary is **closed**: a deadline exactly equal to ``now`` has
    lapsed (there is no time left to do any work).  ``None`` means no
    deadline and never lapses.  This is the single source of truth for
    both admission-time rejection and the queued-request expiry sweep,
    so a request can never be admitted by one site and immediately
    expired by the other under a different reading of the same instant.
    """
    return deadline_s is not None and deadline_s <= now


@dataclass
class QueuedRequest:
    """A request waiting for dispatch since ``admitted_s``."""

    request: SolveRequest
    admitted_s: float

    @property
    def priority(self) -> int:
        return int(self.request.priority)


def _queue_key(queued: QueuedRequest) -> tuple[int, float, int]:
    """Dispatch order: priority class first, then FIFO within a class;
    ``request_id`` breaks exact-arrival ties deterministically."""
    request = queued.request
    return int(request.priority), request.arrival_s, request.request_id


@dataclass
class AdmissionController:
    """Bounded priority queue with preemptive admission.

    Requests enter the queue only through :meth:`offer` (or ``queue`` at
    construction); callers may remove entries, which keeps the deadline
    floor a lower bound.
    """

    capacity: int = 64
    queue: list[QueuedRequest] = field(default_factory=list)
    shed_full: int = 0
    shed_deadline: int = 0
    preemptions: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"admission queue capacity must be >= 1, got {self.capacity}"
            )
        # No queued deadline is earlier than this (inf: none queued).
        self._deadline_floor = _earliest_deadline(self.queue)

    def depth(self) -> int:
        return len(self.queue)

    def offer(
        self, request: SolveRequest, now: float
    ) -> tuple[AdmissionVerdict, QueuedRequest | None]:
        """Decide one arrival.

        Returns the verdict plus the *victim* queued request when
        admission preempted one (the caller owes the victim a shed
        response).  On ``ADMITTED`` the request is in the queue.
        """
        deadline = request.deadline_s
        if deadline_lapsed(deadline, now):
            self.shed_deadline += 1
            tm.count("serve.shed.deadline")
            return AdmissionVerdict.SHED_DEADLINE, None
        victim: QueuedRequest | None = None
        if len(self.queue) >= self.capacity:
            # The queue is sorted and its keys are unique (request ids
            # are), so the last entry is the lowest-priority, youngest.
            candidate = self.queue[-1]
            if candidate.priority <= int(request.priority):
                self.shed_full += 1
                tm.count("serve.shed.queue_full")
                return AdmissionVerdict.SHED_QUEUE_FULL, None
            victim = self.queue.pop()
            self.preemptions += 1
            tm.count("serve.preemptions")
        bisect.insort_right(
            self.queue,
            QueuedRequest(request=request, admitted_s=now),
            key=_queue_key,
        )
        if deadline is not None and deadline < self._deadline_floor:
            self._deadline_floor = deadline
        tm.count("serve.admitted")
        return AdmissionVerdict.ADMITTED, victim

    def expire(self, now: float) -> list[QueuedRequest]:
        """Remove and return queued requests whose deadline has passed.

        Returns at once while the deadline floor lies after ``now``: no
        queued deadline can have lapsed then.
        """
        if self._deadline_floor > now or not self.queue:
            return []
        lapsed = [
            q for q in self.queue if deadline_lapsed(q.request.deadline_s, now)
        ]
        if lapsed:
            keep = {id(q) for q in lapsed}
            self.queue = [q for q in self.queue if id(q) not in keep]
            tm.count("serve.expired", len(lapsed))
        self._deadline_floor = _earliest_deadline(self.queue)
        return lapsed


def _earliest_deadline(queue: list[QueuedRequest]) -> float:
    return min(
        (
            q.request.deadline_s
            for q in queue
            if q.request.deadline_s is not None
        ),
        default=math.inf,
    )
