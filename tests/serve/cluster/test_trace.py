"""Array-native trace generation: shape, determinism, statistical model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve.api import Priority
from repro.serve.cluster.trace import (
    _GAP_BLOCK,
    NO_DEADLINE,
    _arrivals,
    _block_times,
    generate_trace,
)
from repro.serve.loadgen import (
    BURST_FACTOR,
    BURST_PERIOD_S,
    BURST_S,
    TRAFFIC_MIXES,
    LoadSpec,
)

SOURCES = ("poisson2d_64", "heat1d_256", "adv_diff_128")


def spec(**kw):
    base = dict(
        seed=11, duration_s=30.0, rate_rps=400.0, sources=SOURCES
    )
    base.update(kw)
    return LoadSpec(**base)


class TestValidation:
    def test_rejects_non_positive_duration(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(duration_s=0.0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(rate_rps=-1.0)

    def test_rejects_unknown_mix(self):
        with pytest.raises(ConfigurationError):
            LoadSpec(mix="nope")


class TestShape:
    def test_arrays_aligned_and_sorted(self):
        trace = generate_trace(spec())
        n = len(trace)
        assert trace.arrival_s.shape == (n,)
        assert trace.source_idx.shape == (n,)
        assert trace.priority.shape == (n,)
        assert trace.deadline_s.shape == (n,)
        assert np.all(np.diff(trace.arrival_s) >= 0)
        assert trace.arrival_s[0] >= 0.0
        assert trace.arrival_s[-1] < 30.0

    def test_dtypes_are_compact(self):
        trace = generate_trace(spec())
        assert trace.source_idx.dtype == np.int16
        assert trace.priority.dtype == np.int8

    def test_request_count_tracks_rate(self):
        trace = generate_trace(spec())
        expected = 400.0 * 30.0
        assert 0.8 * expected < len(trace) < 1.2 * expected

    def test_only_interactive_requests_carry_deadlines(self):
        trace = generate_trace(spec())
        interactive = trace.priority == Priority.INTERACTIVE.value
        assert np.all(np.isfinite(trace.deadline_s[interactive]))
        assert np.all(trace.deadline_s[~interactive] == NO_DEADLINE)
        assert np.all(
            trace.deadline_s[interactive] > trace.arrival_s[interactive]
        )


class TestReadOnly:
    @pytest.mark.parametrize(
        "name", ["arrival_s", "source_idx", "priority", "deadline_s"]
    )
    def test_in_place_write_raises(self, name):
        array = getattr(generate_trace(spec(duration_s=1.0)), name)
        with pytest.raises(ValueError):
            array[:] = 0


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate_trace(spec())
        b = generate_trace(spec())
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.source_idx, b.source_idx)
        assert np.array_equal(a.priority, b.priority)
        assert np.array_equal(a.deadline_s, b.deadline_s)

    def test_different_seeds_differ(self):
        a = generate_trace(spec())
        b = generate_trace(spec(seed=12))
        assert not np.array_equal(a.arrival_s, b.arrival_s)

    def test_timestamps_rounded_to_nanoseconds(self):
        trace = generate_trace(spec())
        assert np.array_equal(trace.arrival_s, np.round(trace.arrival_s, 9))


class TestStatisticalModel:
    def test_every_source_appears(self):
        trace = generate_trace(spec())
        counts = trace.source_counts()
        assert set(counts) == set(SOURCES)
        assert all(v > 0 for v in counts.values())

    def test_priority_shares_roughly_hold(self):
        trace = generate_trace(spec(duration_s=60.0, rate_rps=800.0))
        counts = trace.priority_counts()
        total = sum(counts.values())
        # PRIORITY_SHARES pins interactive at 30%: allow wide slack,
        # the point is the class split is driven by the shared table.
        assert 0.2 < counts["interactive"] / total < 0.4

    def test_bursty_mix_clusters_arrivals(self):
        trace = generate_trace(spec(mix="bursty"))
        phase = trace.arrival_s % BURST_PERIOD_S
        in_burst = np.mean(phase < BURST_S)
        # Uniform traffic would put 25% of arrivals in the burst window;
        # a 4x burst factor concentrates more than half there.
        assert in_burst > 0.5


def frozen_arrivals(spec, rng):
    """``_arrivals`` as it was before it summed only up to the horizon:
    every block of gaps summed whole and the arrivals masked."""
    bursty = spec.mix == "bursty"
    peak = spec.rate_rps * (BURST_FACTOR if bursty else 1.0)
    chunks = []
    t = 0.0
    while t < spec.duration_s:
        gaps = rng.exponential(1.0 / peak, size=_GAP_BLOCK)
        times = t + np.cumsum(gaps)
        t = float(times[-1])
        chunks.append(times)
    arrivals = np.concatenate(chunks)
    arrivals = arrivals[arrivals < spec.duration_s]
    if bursty:
        phase = arrivals % BURST_PERIOD_S
        accept_p = np.where(phase < BURST_S, 1.0, 1.0 / BURST_FACTOR)
        arrivals = arrivals[rng.random(arrivals.shape[0]) < accept_p]
    return np.round(arrivals, 9)


def assert_matches_frozen(load):
    """Same arrival bytes, and the generator left in the same state."""
    new_rng = np.random.default_rng(load.seed)
    old_rng = np.random.default_rng(load.seed)
    new = _arrivals(load, new_rng)
    old = frozen_arrivals(load, old_rng)
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()
    assert new_rng.random(4).tobytes() == old_rng.random(4).tobytes()


class TestArrivalsOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        duration_s=st.floats(1e-3, 60.0),
        rate_rps=st.floats(1e-2, 5e3),
        mix=st.sampled_from(TRAFFIC_MIXES),
    )
    def test_matches_whole_block_sums(self, seed, duration_s, rate_rps, mix):
        assert_matches_frozen(
            LoadSpec(seed=seed, duration_s=duration_s, rate_rps=rate_rps,
                     mix=mix)
        )

    @pytest.mark.parametrize("mix", ["uniform", "bursty"])
    def test_matches_on_several_blocks(self, mix):
        load = LoadSpec(seed=5, duration_s=10.0, rate_rps=60_000.0, mix=mix)
        assert 10.0 * 60_000.0 > 2 * _GAP_BLOCK
        assert_matches_frozen(load)

    @pytest.mark.parametrize("rate, prefix", [
        (1e-3, False), (1.0, False), (1e3, True), (1e4, True), (1e9, False),
    ])
    def test_block_times_whatever_the_rate_guess(self, rate, prefix):
        """About 1,000 gaps reach the horizon.  A guess that falls short
        of it, or covers the block, sums the whole block; any other
        returns a shorter prefix that reaches the horizon."""
        gaps = np.random.default_rng(3).exponential(1e-3, size=_GAP_BLOCK)
        whole = 2.0 + np.cumsum(gaps)
        times = _block_times(gaps, 2.0, 3.0, rate)
        assert times.tobytes() == whole[: times.shape[0]].tobytes()
        assert times[-1] >= 3.0
        assert (times.shape[0] < _GAP_BLOCK) == prefix
