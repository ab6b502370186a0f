"""Tests for the deterministic synthetic load generator."""

import math

import pytest

from repro.dse import TrafficSpec
from repro.errors import ConfigurationError
from repro.serve.api import Priority
from repro.serve.cluster import ClusterLoadSpec
from repro.serve.loadgen import (
    LoadSpec,
    generate_requests,
    read_request_log,
    write_request_log,
)

LOAD_SPEC_FLOATS = (
    "duration_s", "rate_rps", "deadline_ms", "burst_factor", "burst_s",
    "burst_period_s",
)


def traffic_spec(**overrides):
    fields = dict(name="t", mix="uniform", rate_rps=10.0, duration_s=1.0)
    fields.update(overrides)
    return TrafficSpec(**fields)


TRAFFIC_SPEC_FIELDS = [
    *((LoadSpec, name) for name in LOAD_SPEC_FLOATS),
    *((ClusterLoadSpec, name) for name in LOAD_SPEC_FLOATS),
    *((traffic_spec, name)
      for name in ("duration_s", "rate_rps", "deadline_ms")),
]


class TestLoadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(mix="mystery")


class TestNonFiniteTraffic:
    """NaN and infinite values never reach a generator loop."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build, field", TRAFFIC_SPEC_FIELDS)
    def test_rejected(self, build, field, value):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be a finite number"
        ):
            build(**{field: value})

    def test_non_number_rejected(self):
        with pytest.raises(ConfigurationError, match="finite number"):
            traffic_spec(rate_rps="fast")


class TestGenerateRequests:
    def test_same_seed_same_log(self):
        a = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        b = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        assert a == b

    def test_different_seed_different_log(self):
        a = generate_requests(LoadSpec(seed=3, duration_s=1.0))
        b = generate_requests(LoadSpec(seed=4, duration_s=1.0))
        assert a != b

    def test_arrivals_ordered_and_bounded(self):
        requests = generate_requests(LoadSpec(seed=0, duration_s=2.0))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t < 2.0 for t in arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_rate_roughly_honored(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, rate_rps=100.0)
        )
        assert 350 <= len(requests) <= 650  # ~500 expected

    def test_repeat_heavy_concentrates_sources(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="repeat-heavy")
        )
        counts: dict[str, int] = {}
        for r in requests:
            counts[r.source] = counts.get(r.source, 0) + 1
        top = sorted(counts.values(), reverse=True)[:6]
        assert sum(top) / len(requests) > 0.6

    def test_uniform_spreads_sources(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="uniform")
        )
        counts: dict[str, int] = {}
        for r in requests:
            counts[r.source] = counts.get(r.source, 0) + 1
        top = sorted(counts.values(), reverse=True)[:6]
        assert sum(top) / len(requests) < 0.5

    def test_bursty_generates_more_than_flat(self):
        flat = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="repeat-heavy")
        )
        bursty = generate_requests(
            LoadSpec(seed=0, duration_s=5.0, mix="bursty")
        )
        assert len(bursty) > len(flat)

    def test_interactive_requests_carry_deadline(self):
        requests = generate_requests(LoadSpec(seed=0, duration_s=2.0))
        interactive = [
            r for r in requests if r.priority is Priority.INTERACTIVE
        ]
        assert interactive
        for r in interactive:
            assert r.deadline_s == pytest.approx(r.arrival_s + 0.1)
        for r in requests:
            if r.priority is not Priority.INTERACTIVE:
                assert r.deadline_s is None

    def test_explicit_sources_respected(self):
        requests = generate_requests(
            LoadSpec(seed=0, duration_s=1.0, sources=("Wa", "Li"))
        )
        assert {r.source for r in requests} <= {"Wa", "Li"}


class TestRequestLogRoundTrip:
    def test_round_trips_exactly(self, tmp_path):
        requests = generate_requests(LoadSpec(seed=5, duration_s=1.0))
        path = write_request_log(requests, tmp_path / "req.jsonl")
        assert read_request_log(path) == requests
