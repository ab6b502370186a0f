"""Capacity planning: cheapest fleet meeting an SLO at a target rate.

The question the explorer exists to answer: *"which deployment should
I buy for SLO X at arrival rate Y?"*.  A point is **feasible** when
its simulated p99 meets the SLO, its shed rate stays under the cap,
and its accounting is airtight (no unaccounted requests, at least one
completion).  Among feasible points whose traffic regime meets the
queried arrival rate, the **cheapest** is the one with the least
fabric-time — mm²·seconds of provisioned silicon, the serving-tier
integral of the paper's underutilization metric — with the point id as
a deterministic tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError

DEFAULT_SLO_P99_MS = 50.0
"""Default p99 SLO of the capacity query (half the demo deadline)."""

DEFAULT_RATE_RPS = 400.0
"""Default arrival rate of the capacity query (between the demo
space's steady and rush regimes)."""

DEFAULT_MAX_SHED_RATE = 0.01
"""Default ceiling on the shed fraction a feasible point may show."""


@dataclass(frozen=True)
class CapacityQuery:
    """One "SLO X at rate Y" question."""

    slo_p99_ms: float = DEFAULT_SLO_P99_MS
    rate_rps: float = DEFAULT_RATE_RPS
    max_shed_rate: float = DEFAULT_MAX_SHED_RATE

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value}"
                )
        if self.slo_p99_ms <= 0:
            raise ConfigurationError(
                f"SLO must be > 0 ms, got {self.slo_p99_ms}"
            )
        if self.rate_rps <= 0:
            raise ConfigurationError(
                f"rate must be > 0 rps, got {self.rate_rps}"
            )
        if not 0.0 <= self.max_shed_rate <= 1.0:
            raise ConfigurationError(
                f"max shed rate must be in [0, 1], got {self.max_shed_rate}"
            )

    def as_dict(self) -> dict[str, float]:
        return {
            "slo_p99_ms": self.slo_p99_ms,
            "rate_rps": self.rate_rps,
            "max_shed_rate": self.max_shed_rate,
        }


def is_feasible(
    record: Mapping[str, Any], query: CapacityQuery
) -> bool:
    """SLO met, shedding bounded, accounting airtight.

    ``completed > 0`` is checked first: a zero-completion point carries
    null latency statistics, and a fleet that served nothing can never
    be feasible no matter how empty its percentiles look.
    """
    metrics = record["metrics"]
    return (
        metrics["completed"] > 0
        and metrics["p99_ms"] is not None
        and metrics["p99_ms"] <= query.slo_p99_ms
        and metrics["shed_rate"] <= query.max_shed_rate
        and metrics["unaccounted"] == 0
    )


def plan_capacity(
    records: Sequence[Mapping[str, Any]], query: CapacityQuery
) -> dict[str, Any]:
    """Answer ``query`` over evaluated point records.

    Only points whose traffic regime carries at least the queried
    arrival rate count as evidence — a fleet that is fast at 200 rps
    says nothing about 400.  The answer echoes the query, names the
    winner (or ``None`` when nothing qualifies) and lists every
    feasible candidate so the margin is visible.
    """
    candidates = [
        record
        for record in records
        if record["traffic"]["rate_rps"] >= query.rate_rps
        and is_feasible(record, query)
    ]
    ranked = sorted(
        candidates,
        key=lambda record: (
            record["metrics"]["fabric_mm2_seconds"],
            record["id"],
        ),
    )
    answer: dict[str, Any] = {
        "query": query.as_dict(),
        "considered": sum(
            1
            for record in records
            if record["traffic"]["rate_rps"] >= query.rate_rps
        ),
        "feasible": [record["id"] for record in ranked],
        "cheapest": None,
    }
    if ranked:
        winner = ranked[0]
        answer["cheapest"] = {
            "id": winner["id"],
            "shape": dict(winner["shape"]),
            "traffic": dict(winner["traffic"]),
            "p99_ms": winner["metrics"]["p99_ms"],
            "shed_rate": winner["metrics"]["shed_rate"],
            "fabric_mm2_seconds": winner["metrics"]["fabric_mm2_seconds"],
            "area_mm2": winner["metrics"]["area_mm2"],
            "gflops_per_watt": winner["metrics"]["gflops_per_watt"],
        }
    return answer
