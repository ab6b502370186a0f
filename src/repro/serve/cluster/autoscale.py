"""Deterministic telemetry-driven autoscaler with hysteresis.

The paper's economics — reconfiguration pays off only while utilization
stays high — extend to fleet count: an idle fleet burns device-seconds
for nothing, an overloaded cluster sheds work.  The autoscaler closes
that loop *on the virtual clock*: once per epoch it reads an
:class:`IntervalSignals` snapshot (queue-depth p90 across fleets, shed
rate, busy fraction) and emits a :class:`ScaleDecision`.

Every input is derived from simulated state, and the policy is a pure
function of the signal history — no wall clock, no randomness — so the
same telemetry trace always produces the identical decision sequence
(pinned by tests) and the whole cluster report stays byte-identical
per seed.

Hysteresis, not thresholds alone, is what keeps the policy sane under
bursty traffic: a scale-up needs ``up_intervals`` consecutive hot
epochs, a drain needs ``down_intervals`` consecutive cold ones, and any
action opens a ``cooldown_intervals`` window during which the scaler
holds regardless of signals.  Without the streaks, a single burst epoch
would add a fleet whose cold caches then *worsen* latency; without the
cooldown, add/drain pairs would flap at the burst period.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.errors import ConfigurationError


class ScaleAction(Enum):
    HOLD = "hold"
    ADD = "add"
    DRAIN = "drain"


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and hysteresis windows (epoch-denominated)."""

    queue_high: float = 64.0
    """Scale-up pressure: cluster queue-depth p90 above this."""

    shed_rate_high: float = 0.01
    """Scale-up pressure: interval shed+expired fraction above this."""

    queue_low: float = 1.0
    """Scale-down candidate: queue-depth p90 at or below this."""

    busy_low: float = 0.35
    """Scale-down candidate: mean slot busy fraction at or below this."""

    up_intervals: int = 2
    """Consecutive hot epochs before an ADD fires."""

    down_intervals: int = 5
    """Consecutive cold epochs before a DRAIN fires."""

    cooldown_intervals: int = 3
    """Epochs after any action during which the scaler HOLDs."""

    def __post_init__(self) -> None:
        if self.up_intervals < 1 or self.down_intervals < 1:
            raise ConfigurationError(
                "hysteresis windows must be >= 1 interval, got "
                f"up={self.up_intervals} down={self.down_intervals}"
            )
        if self.cooldown_intervals < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {self.cooldown_intervals}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "queue_high": self.queue_high,
            "shed_rate_high": self.shed_rate_high,
            "queue_low": self.queue_low,
            "busy_low": self.busy_low,
            "up_intervals": self.up_intervals,
            "down_intervals": self.down_intervals,
            "cooldown_intervals": self.cooldown_intervals,
        }


@dataclass(frozen=True)
class IntervalSignals:
    """One epoch's telemetry snapshot, all from simulated state."""

    at_s: float
    queue_depth_p90: float
    shed_rate: float
    busy_fraction: float


@dataclass(frozen=True)
class ScaleDecision:
    at_s: float
    action: ScaleAction
    reason: str
    alive_fleets: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "at_s": round(self.at_s, 9),
            "action": self.action.value,
            "reason": self.reason,
            "alive_fleets": self.alive_fleets,
        }


class Autoscaler:
    """Streak/cooldown state machine over :class:`IntervalSignals`."""

    def __init__(self, policy: AutoscalerPolicy | None = None) -> None:
        self.policy = policy if policy is not None else AutoscalerPolicy()
        self.hot_streak = 0
        self.cold_streak = 0
        self.cooldown = 0
        self.decisions: list[ScaleDecision] = []

    def evaluate(
        self,
        signals: IntervalSignals,
        alive: int,
        min_fleets: int,
        max_fleets: int,
    ) -> ScaleDecision:
        policy = self.policy
        hot = (
            signals.queue_depth_p90 > policy.queue_high
            or signals.shed_rate > policy.shed_rate_high
        )
        cold = (
            signals.queue_depth_p90 <= policy.queue_low
            and signals.busy_fraction <= policy.busy_low
        )
        self.hot_streak = self.hot_streak + 1 if hot else 0
        self.cold_streak = self.cold_streak + 1 if cold else 0
        action = ScaleAction.HOLD
        reason = "within band"
        if self.cooldown > 0:
            self.cooldown -= 1
            reason = "cooldown"
        elif self.hot_streak >= policy.up_intervals:
            if alive < max_fleets:
                action = ScaleAction.ADD
                reason = (
                    "queue pressure"
                    if signals.queue_depth_p90 > policy.queue_high
                    else "shed pressure"
                )
            else:
                reason = "hot but at max_fleets"
        elif self.cold_streak >= policy.down_intervals:
            if alive > min_fleets:
                action = ScaleAction.DRAIN
                reason = "sustained idle"
            else:
                reason = "cold but at min_fleets"
        if action is not ScaleAction.HOLD:
            self.hot_streak = 0
            self.cold_streak = 0
            self.cooldown = policy.cooldown_intervals
        decision = ScaleDecision(
            at_s=signals.at_s,
            action=action,
            reason=reason,
            alive_fleets=alive,
        )
        self.decisions.append(decision)
        return decision
