"""Tests for the deterministic synthetic load generator."""

import json
import math

import numpy as np
import pytest

from repro.datasets.suite import dataset_keys
from repro.dse import TrafficSpec
from repro.errors import ConfigurationError, ValidationError
from repro.serve import loadgen
from repro.serve.api import Priority, SolveRequest
from repro.serve.cluster import generate_trace
from repro.serve.loadgen import (
    PRIORITY_SHARES,
    TRAFFIC_MIXES,
    LoadSpec,
    _instantaneous_rate,
    generate_requests,
    read_request_log,
    source_weights,
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


def choice_loop_requests(spec, keys, rng):
    """Two ``Generator.choice(p=...)`` calls per request (the replaced
    loop, kept as the oracle)."""
    weights = source_weights(spec.mix, len(keys))
    priorities = [p for p, _ in PRIORITY_SHARES]
    priority_weights = np.array([w for _, w in PRIORITY_SHARES])
    requests = []
    t = 0.0
    request_id = 0
    while True:
        t += float(rng.exponential(1.0 / _instantaneous_rate(spec, t)))
        t = round(t, 9)
        if t >= spec.duration_s:
            break
        source = keys[int(rng.choice(len(keys), p=weights))]
        priority = priorities[
            int(rng.choice(len(priorities), p=priority_weights))
        ]
        deadline = None
        if priority is Priority.INTERACTIVE:
            deadline = round(t + spec.deadline_ms * 1e-3, 9)
        requests.append(
            SolveRequest(
                request_id=request_id,
                source=source,
                arrival_s=t,
                priority=priority,
                deadline_s=deadline,
            )
        )
        request_id += 1
    return requests


ORACLE_SOURCES = {
    1: ("Wa",),
    2: ("Wa", "Li"),
    6: tuple(dataset_keys()[5:11]),
    25: (),  # the registry
}


def untemper(y):
    """Invert MT19937's output tempering: the state word that yields ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    x &= 0xFFFFFFFF
    y = x
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & 0xFFFFFFFF


def uniform_words(u):
    """The two 32-bit outputs from which MT19937's ``random()`` makes ``u``."""
    m = int(u * 2.0**53)
    assert m / 2.0**53 == u
    return [(m >> 26) << 5, (m & ((1 << 26) - 1)) << 6]


def scripted_rng(words):
    """A generator whose first raw outputs are ``words``."""
    bits = np.random.MT19937(0)
    state = bits.state
    key = state["state"]["key"].copy()
    key[: len(words)] = [untemper(w) for w in words]
    state["state"]["key"] = key
    state["state"]["pos"] = 0
    bits.state = state
    return np.random.Generator(bits)


def choice_table(weights):
    cdf = np.cumsum(weights)
    return (cdf / cdf[-1]).tolist()


def generate_on(monkeypatch, spec, make_rng):
    """``generate_requests(spec)`` on the generator ``make_rng(seed)``;
    returns the requests and that generator."""
    made = []

    def recording_rng(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(loadgen.np.random, "default_rng", recording_rng)
    requests = generate_requests(spec)
    monkeypatch.undo()
    return requests, made[0]


class TestChoiceFreeGenerator:
    """``generate_requests`` draws each index by bisecting the table
    ``Generator.choice`` builds, from the same uniform.  The stream is a
    contract: equal request lists and an equal final generator state,
    compared in-process (numpy does not promise streams across
    versions)."""

    @pytest.mark.parametrize("n_sources", sorted(ORACLE_SOURCES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("mix", TRAFFIC_MIXES)
    def test_matches_choice_loop(self, monkeypatch, mix, seed, n_sources):
        sources = ORACLE_SOURCES[n_sources]
        spec = LoadSpec(seed=seed, duration_s=2.0, rate_rps=300.0, mix=mix,
                        sources=sources)
        requests, rng = generate_on(
            monkeypatch, spec, np.random.default_rng
        )
        oracle_rng = np.random.default_rng(seed)
        expected = choice_loop_requests(
            spec, sources or dataset_keys(), oracle_rng
        )
        assert len(requests) > 300
        assert requests == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_uniform_on_a_table_boundary(self, monkeypatch):
        # ``choice`` searches its table with side="right": a uniform
        # equal to a boundary belongs to the next index.  Script the first
        # request's draws onto boundaries: a zero gap, then a source and
        # a priority uniform equal to a table entry in [0.5, 1), where
        # every double is a possible ``random()`` value.
        spec = LoadSpec(seed=0, duration_s=0.5, rate_rps=300.0)
        keys = dataset_keys()
        source_u = next(
            c for c in choice_table(source_weights(spec.mix, len(keys)))
            if c >= 0.5
        )
        priority_u = choice_table([w for _, w in PRIORITY_SHARES])[1]
        words = [0, 0, *uniform_words(source_u), *uniform_words(priority_u)]
        requests, rng = generate_on(
            monkeypatch, spec, lambda seed: scripted_rng(words)
        )
        oracle_rng = scripted_rng(words)
        expected = choice_loop_requests(spec, keys, oracle_rng)
        assert expected[0].arrival_s == 0.0
        assert expected[0].priority is Priority.BEST_EFFORT
        assert requests == expected
        state = rng.bit_generator.state["state"]
        oracle_state = oracle_rng.bit_generator.state["state"]
        assert state["pos"] == oracle_state["pos"]
        assert np.array_equal(state["key"], oracle_state["key"])
