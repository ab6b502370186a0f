"""Deterministic synthetic load generation.

Serving behaviour is governed by the *shape* of traffic — arrival
burstiness, how concentrated the dataset mix is, how tight deadlines
run — so the generator models each dimension explicitly:

- **arrival process**: exponential inter-arrivals (Poisson traffic) at
  ``rate_rps``, optionally modulated by a square-wave burst pattern
  (:data:`BURST_FACTOR`× the base rate for :data:`BURST_S` out of every
  :data:`BURST_PERIOD_S`), the classic on/off overload model,
- **dataset mix**: named mixes over the Table II registry — ``uniform``
  spreads requests evenly (cache-hostile), ``repeat-heavy``
  concentrates 80% of traffic on a small hot set (cache-friendly, the
  regime Acamar's amortized analysis targets), ``bursty`` is the
  repeat-heavy mix under burst modulation,
- **priority/deadline mix**: a fixed fraction of traffic is interactive
  with a relative deadline; the rest splits batch/best-effort.

One generator serves both tiers: the cluster tier's vectorized
:func:`~repro.serve.cluster.trace.generate_trace` draws the traffic of a
:class:`LoadSpec`, and :func:`generate_requests` here turns its rows
into request objects for the single-fleet engine.  Everything derives
from one ``numpy`` PCG64 generator seeded by the caller, so a seed
fully determines the request log.  Logs round-trip through JSONL
(:func:`write_request_log` / :func:`read_request_log`) for replay and
offline analysis.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.serve.api import Priority, SolveRequest

HOT_SET_SIZE = 6
HOT_SET_SHARE = 0.8
"""``repeat-heavy`` sends this share of traffic to the first
``HOT_SET_SIZE`` registry keys (weighted geometrically within the set)."""

PRIORITY_SHARES = ((Priority.INTERACTIVE, 0.3), (Priority.BATCH, 0.5),
                   (Priority.BEST_EFFORT, 0.2))

TRAFFIC_MIXES = ("uniform", "repeat-heavy", "bursty")

BURST_FACTOR = 4.0
BURST_S = 0.25
BURST_PERIOD_S = 1.0
"""The ``bursty`` mix runs at ``BURST_FACTOR`` times the base rate for
the first ``BURST_S`` seconds of every ``BURST_PERIOD_S``."""


@dataclass(frozen=True)
class LoadSpec:
    """Parameters of one synthetic traffic run, at either tier."""

    seed: int = 0
    duration_s: float = 5.0
    rate_rps: float = 120.0
    mix: str = "repeat-heavy"
    deadline_ms: float = 100.0
    sources: tuple[str, ...] = ()  # empty → the Table II registry

    def __post_init__(self) -> None:
        validate_seed(self.seed)
        validate_traffic(
            self.mix, self.duration_s, self.rate_rps, self.deadline_ms
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "rate_rps": self.rate_rps,
            "mix": self.mix,
            "deadline_ms": self.deadline_ms,
        }


def validate_seed(seed: int) -> None:
    """Reject a seed numpy's generators cannot take.

    Shared by :class:`LoadSpec` and the DSE sweep, so a bad seed fails
    before any work instead of in the first generator call.
    """
    if (
        isinstance(seed, bool)
        or not isinstance(seed, numbers.Integral)
        or seed < 0
    ):
        raise ConfigurationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )


def validate_traffic(
    mix: str, duration_s: float, rate_rps: float, deadline_ms: float
) -> None:
    """Reject a traffic regime the generators cannot run.

    Shared by :class:`LoadSpec` and the DSE ``TrafficSpec``.  Every
    value must be a finite number and not a ``bool``: a NaN or infinite
    rate or duration never ends the arrival loop (or allocates until
    memory runs out), and a NaN deadline never expires.  All three must
    also be positive: a deadline at or before the arrival sheds every
    interactive request at admission.
    """
    values = {
        "duration_s": duration_s,
        "rate_rps": rate_rps,
        "deadline_ms": deadline_ms,
    }
    for name, value in values.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
        ):
            raise ConfigurationError(
                f"{name} must be a finite number, got {value!r}"
            )
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be > 0 s, got {duration_s}")
    if rate_rps <= 0:
        raise ConfigurationError(f"rate must be > 0 rps, got {rate_rps}")
    if deadline_ms <= 0:
        raise ConfigurationError(f"deadline must be > 0 ms, got {deadline_ms}")
    if mix not in TRAFFIC_MIXES:
        raise ConfigurationError(
            f"unknown traffic mix {mix!r}; expected one of {TRAFFIC_MIXES}"
        )


def source_weights(mix: str, n_keys: int) -> np.ndarray:
    """Per-source probability weights of traffic mix ``mix``.

    Shared by the trace generator (:mod:`repro.serve.cluster.trace`)
    and the DSE evaluator, so "repeat-heavy" means the same skew in
    both.
    """
    if mix not in TRAFFIC_MIXES:
        raise ConfigurationError(
            f"unknown traffic mix {mix!r}; expected one of {TRAFFIC_MIXES}"
        )
    if mix == "uniform":
        return np.full(n_keys, 1.0 / n_keys)
    # repeat-heavy / bursty: geometric weights over the hot set, the
    # remaining share spread over the tail.
    hot = min(HOT_SET_SIZE, n_keys)
    weights = np.zeros(n_keys)
    hot_weights = 0.5 ** np.arange(hot)
    weights[:hot] = HOT_SET_SHARE * hot_weights / hot_weights.sum()
    tail = n_keys - hot
    if tail:
        weights[hot:] = (1.0 - HOT_SET_SHARE) / tail
    else:
        weights[:hot] /= weights[:hot].sum()
    return weights


def generate_requests(spec: LoadSpec) -> list[SolveRequest]:
    """Produce the full request log for ``spec`` (arrival-ordered).

    One :class:`~repro.serve.api.SolveRequest` per row of
    :func:`~repro.serve.cluster.trace.generate_trace` for the same spec,
    so both tiers serve the same traffic: row ``i`` is request id ``i``.
    """
    from repro.serve.cluster.trace import NO_DEADLINE, generate_trace

    trace = generate_trace(spec)
    priorities = {p.value: p for p in Priority}
    rows = zip(
        trace.arrival_s.tolist(),
        trace.source_idx.tolist(),
        trace.priority.tolist(),
        trace.deadline_s.tolist(),
    )
    return [
        SolveRequest(
            request_id=request_id,
            source=trace.sources[source],
            arrival_s=arrival,
            priority=priorities[priority],
            deadline_s=None if deadline == NO_DEADLINE else deadline,
        )
        for request_id, (arrival, source, priority, deadline) in enumerate(
            rows
        )
    ]


def write_request_log(
    requests: Sequence[SolveRequest], path: str | Path
) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for request in requests:
            fh.write(json.dumps(request.as_dict(), sort_keys=True) + "\n")
    return path


def read_request_log(path: str | Path) -> list[SolveRequest]:
    """Load a JSONL request log, arrival-ordered.

    Raises :class:`~repro.errors.ValidationError`, naming the line, for a
    line that is not a JSON object, a missing or mistyped field, a time
    that is not finite, an unknown priority or a repeated request id.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ValidationError(
            f"cannot read request log {path}: {exc.strerror}"
        ) from None
    requests: list[SolveRequest] = []
    lines_by_id: dict[int, int] = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            request = SolveRequest.from_dict(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{number}: not valid JSON ({exc.msg})"
            ) from None
        except ValidationError as exc:
            raise ValidationError(f"{path}:{number}: {exc}") from None
        first = lines_by_id.setdefault(request.request_id, number)
        if first != number:
            raise ValidationError(
                f"{path}:{number}: request_id {request.request_id} "
                f"repeats line {first}"
            )
        requests.append(request)
    requests.sort(key=lambda r: (r.arrival_s, r.request_id))
    return requests
