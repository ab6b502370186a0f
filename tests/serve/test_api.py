"""Tests for the serving request/response contract."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.serve.api import (
    Outcome,
    Priority,
    SolveRequest,
    SolveResponse,
    parse_priority,
)


class TestPriority:
    def test_ordering_interactive_most_urgent(self):
        assert Priority.INTERACTIVE < Priority.BATCH < Priority.BEST_EFFORT

    def test_parse_from_string_and_int(self):
        assert parse_priority("interactive") is Priority.INTERACTIVE
        assert parse_priority(" BATCH ") is Priority.BATCH
        assert parse_priority(2) is Priority.BEST_EFFORT
        assert parse_priority(Priority.BATCH) is Priority.BATCH

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown priority"):
            parse_priority("urgent")

    @pytest.mark.parametrize("value", [True, False, 7, -1, 1.0, None])
    def test_parse_rejects_bool_and_unknown_values(self, value):
        with pytest.raises(ValidationError, match="unknown priority"):
            parse_priority(value)

    def test_parse_takes_numpy_integers(self):
        assert parse_priority(np.int64(0)) is Priority.INTERACTIVE


class TestSolveRequest:
    def test_round_trips_through_dict(self):
        request = SolveRequest(
            request_id=7,
            source="Wa",
            arrival_s=0.125,
            priority=Priority.INTERACTIVE,
            deadline_s=0.225,
            tenant="team-a",
        )
        again = SolveRequest.from_dict(request.as_dict())
        assert again == request

    def test_no_deadline_round_trips_as_none(self):
        request = SolveRequest(request_id=0, source="Li", arrival_s=0.0)
        payload = request.as_dict()
        assert payload["deadline_s"] is None
        assert SolveRequest.from_dict(payload).deadline_s is None

    @pytest.mark.parametrize("value, member", [
        (0, Priority.INTERACTIVE),
        (1, Priority.BATCH),
        (2, Priority.BEST_EFFORT),
        ("interactive", Priority.INTERACTIVE),
        (np.int64(2), Priority.BEST_EFFORT),
    ])
    def test_priority_coerced_to_member(self, value, member):
        request = SolveRequest(0, "Wa", 0.0, priority=value)
        # The scheduler tests ``is Priority.INTERACTIVE``: a plain 0
        # must become the member itself, not an equal int.
        assert request.priority is member
        assert request == SolveRequest(0, "Wa", 0.0, priority=member)
        assert request.as_dict()["priority"] == member.name.lower()

    @pytest.mark.parametrize("value", [7, True, "urgent"])
    def test_bad_priority_rejected_at_construction(self, value):
        with pytest.raises(ValidationError, match="unknown priority"):
            SolveRequest(0, "Wa", 0.0, priority=value)


class TestSolveResponse:
    def test_latency_is_finish_minus_arrival(self):
        response = SolveResponse(
            request_id=1,
            source="Wa",
            outcome=Outcome.COMPLETED,
            priority=Priority.BATCH,
            arrival_s=1.0,
            finish_s=1.25,
        )
        assert response.latency_s == pytest.approx(0.25)

    def test_as_dict_is_json_stable(self):
        response = SolveResponse(
            request_id=1,
            source="Wa",
            outcome=Outcome.SHED,
            priority=Priority.BEST_EFFORT,
            arrival_s=0.5,
            finish_s=0.5,
            detail="queue_full",
        )
        payload = response.as_dict()
        assert payload["outcome"] == "shed"
        assert payload["priority"] == "best_effort"
        assert payload["latency_s"] == 0.0
        assert payload["detail"] == "queue_full"

    def test_completed_equals_keyword_construction(self):
        request = SolveRequest(3, "Li", 0.5, Priority.INTERACTIVE, 0.9)
        fields = dict(
            finish_s=0.75,
            queue_s=0.125,
            service_s=0.125,
            cache_hit=True,
            batch_id=4,
            instance=2,
            converged=True,
            solver_sequence=("cg", "bicgstab"),
            iterations=17,
        )
        built = SolveResponse.completed(request, *fields.values())
        expected = SolveResponse(
            request_id=3,
            source="Li",
            outcome=Outcome.COMPLETED,
            priority=Priority.INTERACTIVE,
            arrival_s=0.5,
            **fields,
        )
        assert built == expected
        assert hash(built) == hash(expected)
        assert repr(built) == repr(expected)
        assert list(vars(built).items()) == list(vars(expected).items())
        with pytest.raises(AttributeError):
            built.finish_s = 1.0  # still frozen
