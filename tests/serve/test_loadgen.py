"""Tests for the deterministic synthetic load generator."""

import json
import math

import numpy as np
import pytest

from repro.datasets.suite import dataset_keys
from repro.dse import TrafficSpec
from repro.errors import ConfigurationError, ValidationError
from repro.serve import ServiceConfig, run_cluster_loadtest, run_loadtest
from repro.serve.api import Priority
from repro.serve.cluster import generate_trace
from repro.serve.cluster.trace import NO_DEADLINE
from repro.serve.loadgen import (
    TRAFFIC_MIXES,
    LoadSpec,
    generate_requests,
    read_request_log,
    write_request_log,
)

LOAD_SPEC_FLOATS = ("duration_s", "rate_rps", "deadline_ms")


def traffic_spec(**overrides):
    fields = dict(name="t", mix="uniform", rate_rps=10.0, duration_s=1.0)
    fields.update(overrides)
    return TrafficSpec(**fields)


def cluster_trace_spec(**fields):
    """A ``LoadSpec`` that the cluster tier's trace generator has run on."""
    spec = LoadSpec(**fields)
    generate_trace(spec)
    return spec


TRAFFIC_SPEC_FIELDS = [
    *((LoadSpec, name) for name in LOAD_SPEC_FLOATS),
    *((cluster_trace_spec, name) for name in LOAD_SPEC_FLOATS),
    *((traffic_spec, name) for name in LOAD_SPEC_FLOATS),
]


class TestLoadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            LoadSpec(mix="mystery")

    @pytest.mark.parametrize("value", [0.0, -5.0])
    @pytest.mark.parametrize(
        "build", [LoadSpec, cluster_trace_spec, traffic_spec]
    )
    def test_deadline_must_be_positive(self, build, value):
        # One rule for every traffic spec: a deadline at or before the
        # arrival would shed every interactive request at admission.
        with pytest.raises(ConfigurationError, match="deadline must be > 0 ms"):
            build(deadline_ms=value)


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

    @pytest.mark.parametrize("build, field", TRAFFIC_SPEC_FIELDS)
    def test_bool_rejected(self, build, field):
        with pytest.raises(
            ConfigurationError, match=f"{field} must be a finite number"
        ):
            build(**{field: True})


class TestSeedValidation:
    """A seed numpy cannot take fails at the spec, before any draw."""

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True, None])
    @pytest.mark.parametrize("build", [LoadSpec, cluster_trace_spec])
    def test_rejected(self, build, seed):
        with pytest.raises(
            ConfigurationError, match="seed must be a non-negative integer"
        ):
            build(seed=seed)

    @pytest.mark.parametrize("build", [LoadSpec, cluster_trace_spec])
    def test_integral_seeds_accepted(self, build):
        assert build(seed=np.int64(3)).seed == 3
        assert build(seed=0).seed == 0


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


class TestRequestLogValidation:
    """A malformed log line is a ``ValidationError`` naming the line."""

    GOOD = {"request_id": 0, "source": "Wa", "arrival_s": 0.0}

    def write(self, tmp_path, *lines):
        path = tmp_path / "req.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("line, message", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"request_id": 1, "source": "Wa"}', "missing key 'arrival_s'"),
        ('{"source": "Wa", "arrival_s": 0.1}', "missing key 'request_id'"),
        ('{"request_id": "1", "source": "Wa", "arrival_s": 0.1}',
         "request_id must be an integer"),
        ('{"request_id": 1, "source": 5, "arrival_s": 0.1}',
         "source must be a string"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": "0.1"}',
         "arrival_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": NaN}',
         "arrival_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": Infinity}',
         "arrival_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": 0.1, '
         '"deadline_s": -Infinity}', "deadline_s must be a finite number"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": 0.1, '
         '"priority": "urgent"}', "unknown priority"),
        ('{"request_id": 1, "source": "Wa", "arrival_s": 0.1, '
         '"priority": 7}', "unknown priority"),
        ('{"request_id": 0, "source": "Li", "arrival_s": 0.1}',
         "request_id 0 repeats line 1"),
    ])
    def test_bad_line_names_its_number(self, tmp_path, line, message):
        path = self.write(tmp_path, json.dumps(self.GOOD), "", line)
        with pytest.raises(ValidationError, match=message) as caught:
            read_request_log(path)
        assert str(caught.value).startswith(f"{path}:3: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read request log"):
            read_request_log(tmp_path / "absent.jsonl")


STREAM_SOURCES = {
    1: ("Wa",),
    2: ("Wa", "Li"),
    6: tuple(dataset_keys()[5:11]),
    25: (),  # the registry
}


class TestOneStream:
    """``generate_requests`` serves the rows of ``generate_trace``: one
    traffic generator for both tiers."""

    @pytest.mark.parametrize("n_sources", sorted(STREAM_SOURCES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("mix", TRAFFIC_MIXES)
    def test_requests_are_the_trace_rows(self, mix, seed, n_sources):
        spec = LoadSpec(seed=seed, duration_s=2.0, rate_rps=300.0, mix=mix,
                        sources=STREAM_SOURCES[n_sources])
        requests = generate_requests(spec)
        trace = generate_trace(spec)
        assert len(requests) == len(trace) > 300
        for row, request in enumerate(requests):
            assert request.request_id == row
            assert request.source == trace.sources[trace.source_idx[row]]
            assert request.arrival_s == trace.arrival_s[row]
            assert type(request.arrival_s) is float
            assert request.priority is Priority(trace.priority[row])
            deadline = trace.deadline_s[row]
            if deadline == NO_DEADLINE:
                assert request.deadline_s is None
            else:
                assert request.deadline_s == deadline
                assert type(request.deadline_s) is float

    @pytest.mark.parametrize("mix", TRAFFIC_MIXES)
    def test_both_tiers_generate_and_echo_the_same_load(self, mix):
        spec = LoadSpec(seed=1, duration_s=1.0, rate_rps=200.0, mix=mix,
                        sources=("Wa", "Li"))
        single = run_loadtest(spec, ServiceConfig(workers=1)).as_dict()
        cluster = run_cluster_loadtest(spec).as_dict()
        generated = single["requests"]["generated"]
        assert generated == cluster["requests"]["generated"] > 0
        assert single["serving"].items() >= spec.as_dict().items()
        assert cluster["cluster"].items() >= spec.as_dict().items()
