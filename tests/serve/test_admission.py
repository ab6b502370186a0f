"""Tests for the bounded admission queue with preemptive admission."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.admission import (
    AdmissionController,
    AdmissionVerdict,
    QueuedRequest,
)
from repro.serve.api import Priority, SolveRequest


def request(rid, priority=Priority.BATCH, arrival=None, deadline=None):
    return SolveRequest(
        request_id=rid,
        source="Wa",
        arrival_s=float(rid) * 1e-3 if arrival is None else arrival,
        priority=priority,
        deadline_s=deadline,
    )


class TestAdmission:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0)

    def test_admits_under_capacity(self):
        controller = AdmissionController(capacity=2)
        verdict, victim = controller.offer(request(0), now=0.0)
        assert verdict is AdmissionVerdict.ADMITTED
        assert victim is None
        assert controller.depth() == 1

    def test_sheds_when_full_and_not_outranking(self):
        controller = AdmissionController(capacity=1)
        controller.offer(request(0, Priority.BATCH), now=0.0)
        verdict, victim = controller.offer(
            request(1, Priority.BATCH), now=0.0
        )
        assert verdict is AdmissionVerdict.SHED_QUEUE_FULL
        assert victim is None
        assert controller.shed_full == 1
        assert controller.depth() == 1

    def test_preempts_lowest_priority_youngest(self):
        controller = AdmissionController(capacity=3)
        controller.offer(request(0, Priority.BATCH), now=0.0)
        controller.offer(request(1, Priority.BEST_EFFORT), now=0.0)
        controller.offer(request(2, Priority.BEST_EFFORT), now=0.0)
        verdict, victim = controller.offer(
            request(3, Priority.INTERACTIVE), now=0.0
        )
        assert verdict is AdmissionVerdict.ADMITTED
        # Victim is the lowest class, and within it the youngest arrival.
        assert victim.request.request_id == 2
        assert controller.preemptions == 1
        assert controller.depth() == 3

    def test_queue_sorted_by_priority_then_fifo(self):
        controller = AdmissionController(capacity=8)
        controller.offer(request(0, Priority.BEST_EFFORT), now=0.0)
        controller.offer(request(1, Priority.INTERACTIVE), now=0.0)
        controller.offer(request(2, Priority.BATCH), now=0.0)
        controller.offer(request(3, Priority.INTERACTIVE), now=0.0)
        ids = [q.request.request_id for q in controller.queue]
        assert ids == [1, 3, 2, 0]

    def test_sheds_lapsed_deadline_on_arrival(self):
        controller = AdmissionController(capacity=8)
        verdict, _ = controller.offer(
            request(0, Priority.INTERACTIVE, arrival=1.0, deadline=0.5),
            now=1.0,
        )
        assert verdict is AdmissionVerdict.SHED_DEADLINE
        assert controller.shed_deadline == 1

    def test_expire_removes_lapsed_only(self):
        controller = AdmissionController(capacity=8)
        controller.offer(
            request(0, Priority.INTERACTIVE, arrival=0.0, deadline=0.01),
            now=0.0,
        )
        controller.offer(request(1, Priority.BATCH, arrival=0.0), now=0.0)
        lapsed = controller.expire(now=0.02)
        assert [q.request.request_id for q in lapsed] == [0]
        assert [q.request.request_id for q in controller.queue] == [1]
        assert controller.expire(now=0.02) == []

    def test_expire_after_dispatch_removed_the_earliest_deadline(self):
        # Dispatch takes entries out of the queue behind the controller's
        # back; the sweep must still find the next deadline to lapse.
        controller = AdmissionController(capacity=8)
        controller.offer(request(0, arrival=0.0, deadline=0.01), now=0.0)
        controller.offer(request(1, arrival=0.0, deadline=0.05), now=0.0)
        controller.queue = controller.queue[1:]
        assert controller.expire(now=0.02) == []
        lapsed = controller.expire(now=0.05)
        assert [q.request.request_id for q in lapsed] == [1]
        assert controller.queue == []

    def test_expire_sees_a_queue_given_at_construction(self):
        queued = QueuedRequest(request(0, arrival=0.0, deadline=0.01), 0.0)
        controller = AdmissionController(capacity=8, queue=[queued])
        assert controller.expire(now=0.01) == [queued]
        assert controller.queue == []


class TestDeadlineBoundary:
    """Regression pins for the single-sourced boundary predicates.

    Both admission and the expiry sweep resolve "has this deadline
    passed" through the same predicate, with a closed boundary: a
    deadline exactly equal to now has lapsed.
    """

    def test_deadline_equal_to_now_is_shed_at_admission(self):
        controller = AdmissionController(capacity=4)
        verdict, victim = controller.offer(
            request(0, deadline=5.0), now=5.0
        )
        assert verdict is AdmissionVerdict.SHED_DEADLINE
        assert victim is None
        assert controller.shed_deadline == 1

    def test_deadline_equal_to_now_expires_in_queue(self):
        controller = AdmissionController(capacity=4)
        verdict, _ = controller.offer(request(0, deadline=5.0), now=0.0)
        assert verdict is AdmissionVerdict.ADMITTED
        assert controller.expire(now=4.999999) == []
        lapsed = controller.expire(now=5.0)
        assert [q.request.request_id for q in lapsed] == [0]
        assert controller.depth() == 0

    def test_predicates_are_single_sourced(self):
        from repro.serve.admission import deadline_lapsed

        assert deadline_lapsed(5.0, 5.0)
        assert not deadline_lapsed(5.0, 4.999999999)
        assert not deadline_lapsed(None, 1e9)
