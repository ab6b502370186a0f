"""Autoscaler hysteresis: streaks, cooldown, floors/ceilings, determinism."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.cluster.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    IntervalSignals,
    ScaleAction,
)

POLICY = AutoscalerPolicy(
    queue_high=64.0,
    shed_rate_high=0.01,
    queue_low=1.0,
    busy_low=0.35,
    up_intervals=2,
    down_intervals=3,
    cooldown_intervals=2,
)


def hot(at_s):
    return IntervalSignals(
        at_s=at_s, queue_depth_p90=200.0, shed_rate=0.0, busy_fraction=1.0,
    )


def cold(at_s):
    return IntervalSignals(
        at_s=at_s, queue_depth_p90=0.0, shed_rate=0.0, busy_fraction=0.1,
    )


def neutral(at_s):
    return IntervalSignals(
        at_s=at_s, queue_depth_p90=10.0, shed_rate=0.0, busy_fraction=0.8,
    )


def drive(scaler, signals, alive=4, lo=1, hi=8):
    return [
        scaler.evaluate(s, alive=alive, min_fleets=lo, max_fleets=hi).action
        for s in signals
    ]


class TestPolicyValidation:
    def test_streak_windows_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(up_intervals=0)

    def test_cooldown_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(cooldown_intervals=-1)


class TestHysteresis:
    def test_single_hot_epoch_does_not_scale(self):
        actions = drive(Autoscaler(POLICY), [hot(0.0), neutral(1.0)])
        assert actions == [ScaleAction.HOLD, ScaleAction.HOLD]

    def test_streak_of_up_intervals_fires_add(self):
        actions = drive(Autoscaler(POLICY), [hot(0.0), hot(1.0)])
        assert actions == [ScaleAction.HOLD, ScaleAction.ADD]

    def test_neutral_epoch_resets_hot_streak(self):
        actions = drive(
            Autoscaler(POLICY), [hot(0.0), neutral(1.0), hot(2.0), hot(3.0)]
        )
        assert actions == [
            ScaleAction.HOLD, ScaleAction.HOLD,
            ScaleAction.HOLD, ScaleAction.ADD,
        ]

    def test_drain_needs_down_intervals(self):
        actions = drive(
            Autoscaler(POLICY), [cold(float(i)) for i in range(3)]
        )
        assert actions == [
            ScaleAction.HOLD, ScaleAction.HOLD, ScaleAction.DRAIN,
        ]

    def test_cooldown_blocks_consecutive_actions(self):
        # ADD at epoch 1 opens a 2-epoch cooldown: epochs 2-3 HOLD with
        # the cooldown reason even under sustained pressure.  The streak
        # rebuilds from zero during the cooldown, so the next ADD lands
        # exactly cooldown + 1 epochs after the first.
        scaler = Autoscaler(POLICY)
        signals = [hot(float(i)) for i in range(6)]
        actions = drive(scaler, signals)
        assert actions == [
            ScaleAction.HOLD, ScaleAction.ADD,
            ScaleAction.HOLD, ScaleAction.HOLD,
            ScaleAction.ADD, ScaleAction.HOLD,
        ]
        assert [d.reason for d in scaler.decisions[2:4]] == [
            "cooldown", "cooldown",
        ]

    def test_non_hold_decisions_spaced_by_cooldown(self):
        scaler = Autoscaler(POLICY)
        drive(scaler, [hot(float(i)) for i in range(20)])
        fired = [
            i for i, d in enumerate(scaler.decisions)
            if d.action is not ScaleAction.HOLD
        ]
        assert fired
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(g >= POLICY.cooldown_intervals + 1 for g in gaps)


class TestBounds:
    def test_add_respects_max_fleets(self):
        scaler = Autoscaler(POLICY)
        actions = drive(scaler, [hot(0.0), hot(1.0)], alive=8, hi=8)
        assert actions == [ScaleAction.HOLD, ScaleAction.HOLD]
        assert scaler.decisions[-1].reason == "hot but at max_fleets"

    def test_drain_respects_min_fleets(self):
        scaler = Autoscaler(POLICY)
        actions = drive(
            scaler, [cold(float(i)) for i in range(3)], alive=1, lo=1
        )
        assert actions[-1] is ScaleAction.HOLD
        assert scaler.decisions[-1].reason == "cold but at min_fleets"


class TestDeterminism:
    def test_identical_signal_traces_identical_decisions(self):
        signals = (
            [hot(float(i)) for i in range(4)]
            + [neutral(float(i)) for i in range(4, 8)]
            + [cold(float(i)) for i in range(8, 16)]
        )
        a, b = Autoscaler(POLICY), Autoscaler(POLICY)
        drive(a, signals)
        drive(b, signals)
        assert [d.as_dict() for d in a.decisions] == [
            d.as_dict() for d in b.decisions
        ]

    def test_pinned_decision_sequence(self):
        scaler = Autoscaler(POLICY)
        signals = (
            [hot(float(i)) for i in range(5)]
            + [cold(float(i)) for i in range(5, 13)]
        )
        drive(scaler, signals)
        assert [d.action.value for d in scaler.decisions] == [
            "hold", "add", "hold", "hold", "add",
            "hold", "hold", "drain", "hold", "hold", "drain", "hold", "hold",
        ]
