"""Timer wheel: virtual-time ordering with deterministic tie-breaks."""

from repro.serve.cluster.events import (
    EVENT_EPOCH,
    EVENT_FLEET_FAULT,
    TimerEvent,
    TimerWheel,
)


class TestOrdering:
    def test_pops_in_time_order(self):
        wheel = TimerWheel()
        for at in (3.0, 1.0, 2.0):
            wheel.schedule(at, EVENT_EPOCH)
        assert [wheel.pop().at_s for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_ties_break_on_push_order(self):
        wheel = TimerWheel()
        wheel.schedule(1.0, EVENT_EPOCH, payload="first")
        wheel.schedule(1.0, EVENT_FLEET_FAULT, payload="second")
        wheel.schedule(1.0, EVENT_EPOCH, payload="third")
        assert [wheel.pop().payload for _ in range(3)] == [
            "first", "second", "third",
        ]

    def test_payload_never_participates_in_comparison(self):
        # Payloads may be uncomparable objects; ordering is (at_s, seq).
        wheel = TimerWheel()
        wheel.schedule(1.0, EVENT_EPOCH, payload={"a": 1})
        wheel.schedule(1.0, EVENT_EPOCH, payload={"b": 2})
        assert wheel.pop().payload == {"a": 1}

    def test_timestamps_rounded_to_nanoseconds(self):
        wheel = TimerWheel()
        wheel.schedule(0.1 + 0.2, EVENT_EPOCH)
        assert wheel.pop().at_s == round(0.1 + 0.2, 9)


class TestPopUntil:
    def test_counters_track_throughput(self):
        wheel = TimerWheel()
        for at in (1.0, 2.0):
            wheel.schedule(at, EVENT_EPOCH)
        while wheel:
            wheel.pop()
        assert (wheel.pushed, wheel.popped) == (2, 2)
        assert not wheel

    def test_event_is_frozen(self):
        event = TimerEvent(at_s=1.0, seq=0, kind=EVENT_EPOCH)
        try:
            event.at_s = 2.0
        except AttributeError:
            return
        raise AssertionError("TimerEvent must be immutable")
