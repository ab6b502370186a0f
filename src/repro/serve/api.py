"""Request/response contract of the online solver service.

A :class:`SolveRequest` is one client ask: solve the system identified
by ``source`` (a Table II key, an ``.mtx`` path, or an in-memory
problem) under a priority class and an optional deadline.  Every
generated request receives **exactly one** :class:`SolveResponse` — a
completed solve, an explicit shed (admission refused or preempted), an
expiry (deadline passed while queued), or a failure (the solve raised).
"Zero dropped without a shed response" is the subsystem's accounting
invariant and is asserted by the CI smoke job.

All timestamps are *virtual* seconds on the simulator clock (see
``docs/serving.md``): the serving layer is a discrete-event model, so a
fixed request log always yields a byte-identical response log.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Any

from repro.errors import ValidationError


class Priority(enum.IntEnum):
    """Request priority class; lower value = more urgent.

    ``INTERACTIVE`` requests typically carry deadlines and may preempt
    queued ``BEST_EFFORT`` work when the admission queue is full;
    ``BATCH`` is the default for bulk traffic.
    """

    INTERACTIVE = 0
    BATCH = 1
    BEST_EFFORT = 2


PRIORITY_NAMES = {p: p.name.lower() for p in Priority}


def parse_priority(value: "str | int | Priority") -> Priority:
    """Coerce a CLI/JSON value to a :class:`Priority`.

    Takes a member, its integer value or its name (any case).  A
    ``bool`` is not an integer here, so ``True`` is refused rather than
    read as ``BATCH``.
    """
    if isinstance(value, Priority):
        return value
    if not isinstance(value, bool):
        try:
            if isinstance(value, numbers.Integral):
                return Priority(int(value))
            return Priority[str(value).strip().upper()]
        except (KeyError, ValueError):
            pass
    raise ValidationError(
        f"unknown priority {value!r}; expected one of "
        f"{sorted(PRIORITY_NAMES.values())}"
    )


class Outcome(enum.Enum):
    """Terminal state of one request."""

    COMPLETED = "completed"  # solved; converged flag says how it went
    SHED = "shed"            # admission refused or preempted (backpressure)
    EXPIRED = "expired"      # deadline passed while still queued
    FAILED = "failed"        # the solve itself raised


@dataclass(frozen=True)
class SolveRequest:
    """One solve request on the virtual clock.

    Attributes
    ----------
    request_id:
        Dense, unique id (generation order).
    source:
        Problem source — Table II key or ``.mtx``/``.mtx.gz`` path.
    arrival_s:
        Virtual arrival time in seconds.
    priority:
        Scheduling class: a :class:`Priority`, or anything
        :func:`parse_priority` takes, coerced at construction (the
        scheduler tests members by identity).
    deadline_s:
        Absolute virtual deadline, or ``None`` for no deadline.
    tenant:
        Logical traffic owner (used for accounting only).
    """

    request_id: int
    source: str
    arrival_s: float
    priority: Priority = Priority.BATCH
    deadline_s: float | None = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        # ``type(...) is`` rather than ``isinstance``: the load
        # generator builds every request with a member, so this is the
        # one check on its path.
        if type(self.priority) is not Priority:
            object.__setattr__(
                self, "priority", parse_priority(self.priority)
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "source": self.source,
            "arrival_s": round(self.arrival_s, 9),
            "priority": PRIORITY_NAMES[self.priority],
            "deadline_s": (
                None if self.deadline_s is None else round(self.deadline_s, 9)
            ),
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SolveRequest":
        """Parse one request-log record.

        Raises :class:`~repro.errors.ValidationError` for a payload that
        is not an object, a missing or mistyped field, a time that is
        not a finite number, or an unknown priority.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"a request must be a JSON object, got {payload!r}"
            )
        for name in ("request_id", "source", "arrival_s"):
            if name not in payload:
                raise ValidationError(f"missing key {name!r}")
        request_id = payload["request_id"]
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            raise ValidationError(
                f"request_id must be an integer, got {request_id!r}"
            )
        for name in ("source", "tenant"):
            if not isinstance(payload.get(name, ""), str):
                raise ValidationError(
                    f"{name} must be a string, got {payload[name]!r}"
                )
        deadline = payload.get("deadline_s")
        return cls(
            request_id=request_id,
            source=payload["source"],
            arrival_s=_finite_seconds("arrival_s", payload["arrival_s"]),
            priority=parse_priority(payload.get("priority", Priority.BATCH)),
            deadline_s=(
                None
                if deadline is None
                else _finite_seconds("deadline_s", deadline)
            ),
            tenant=payload.get("tenant", "default"),
        )


def _finite_seconds(name: str, value: Any) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SolveResponse:
    """What the service reports back for one request.

    Latency fields decompose as ``latency_s = queue_s + service_s`` where
    ``service_s`` covers configuration load, structure analysis (cache
    misses only) and modeled device compute.  For non-``COMPLETED``
    outcomes the solve fields are zeroed and ``detail`` carries the shed
    or failure reason.
    """

    request_id: int
    source: str
    outcome: Outcome
    priority: Priority
    arrival_s: float
    finish_s: float
    queue_s: float = 0.0
    service_s: float = 0.0
    cache_hit: bool = False
    batch_id: int = -1
    instance: int = -1
    converged: bool = False
    solver_sequence: tuple[str, ...] = ()
    iterations: int = 0
    detail: str = ""

    @classmethod
    def completed(
        cls,
        request: SolveRequest,
        finish_s: float,
        queue_s: float,
        service_s: float,
        cache_hit: bool,
        batch_id: int,
        instance: int,
        converged: bool,
        solver_sequence: tuple[str, ...],
        iterations: int,
    ) -> "SolveResponse":
        """The ``COMPLETED`` response to ``request``.

        Equal to the keyword construction, field for field and in field
        order.  It sets each field as the frozen ``__init__`` does, but
        takes positional arguments and binds the setter once: the
        scheduler builds one per served request, and matching fourteen
        keywords cost more than the fields themselves.
        """
        response = object.__new__(cls)
        set_field = object.__setattr__
        set_field(response, "request_id", request.request_id)
        set_field(response, "source", request.source)
        set_field(response, "outcome", Outcome.COMPLETED)
        set_field(response, "priority", request.priority)
        set_field(response, "arrival_s", request.arrival_s)
        set_field(response, "finish_s", finish_s)
        set_field(response, "queue_s", queue_s)
        set_field(response, "service_s", service_s)
        set_field(response, "cache_hit", cache_hit)
        set_field(response, "batch_id", batch_id)
        set_field(response, "instance", instance)
        set_field(response, "converged", converged)
        set_field(response, "solver_sequence", solver_sequence)
        set_field(response, "iterations", iterations)
        set_field(response, "detail", "")
        return response

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "source": self.source,
            "outcome": self.outcome.value,
            "priority": PRIORITY_NAMES[self.priority],
            "arrival_s": round(self.arrival_s, 9),
            "finish_s": round(self.finish_s, 9),
            "latency_s": round(self.latency_s, 9),
            "queue_s": round(self.queue_s, 9),
            "service_s": round(self.service_s, 9),
            "cache_hit": self.cache_hit,
            "batch_id": self.batch_id,
            "instance": self.instance,
            "converged": self.converged,
            "solver_sequence": list(self.solver_sequence),
            "iterations": self.iterations,
            "detail": self.detail,
        }
