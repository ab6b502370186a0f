"""The generators' random stream is a contract: oracle tests.

``_random_offdiag_pattern`` and ``_clique_pattern`` keep only their
random draws in a Python loop and build the coordinates vectorized.  The
per-row and per-clique loops they replaced are kept here as oracles: the
new helpers must return equal arrays and leave the generator in an equal
state.  Comparisons run in-process, since numpy does not promise
``Generator`` streams across versions.
"""

import numpy as np
import pytest

from repro.datasets.generators import _clique_pattern, _random_offdiag_pattern


def loop_offdiag_pattern(n, row_lengths, rng):
    """One ``np.where`` / ``np.full`` per row (the replaced loop)."""
    rows = []
    cols = []
    for i, k in enumerate(row_lengths):
        k = int(min(k, n - 1))
        if k <= 0:
            continue
        choices = rng.choice(n - 1, size=k, replace=False)
        choices = np.where(choices >= i, choices + 1, choices)  # skip diagonal
        rows.append(np.full(k, i, dtype=np.int64))
        cols.append(choices.astype(np.int64))
    if not rows:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def loop_clique_pattern(n, clique_mean, rng, clique_min=3, clique_max=24):
    """One ``np.meshgrid`` per clique (the replaced loop)."""
    rows = []
    cols = []
    start = 0
    while start < n:
        size = int(
            np.clip(
                round(rng.lognormal(np.log(clique_mean), 0.4)),
                clique_min,
                clique_max,
            )
        )
        size = min(size, n - start)
        if size >= 2:
            members = np.arange(start, start + size)
            grid_r, grid_c = np.meshgrid(members, members, indexing="ij")
            off = grid_r != grid_c
            rows.append(grid_r[off].ravel())
            cols.append(grid_c[off].ravel())
        start += max(size, 1)
    if not rows:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cols)


def assert_same_pattern(new, old, new_rng, old_rng):
    for got, want in zip(new, old):
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


SIZES = (1, 2, 3, 50, 4096)


def row_lengths(n, seed):
    """Row lengths with empty rows and rows asking for k >= n."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 12, size=n)
    lengths[rng.random(n) < 0.2] = 0
    lengths[rng.random(n) < 0.05] = n + rng.integers(0, 3)
    if n > 1:
        lengths[:2] = (0, n - 1)
    return lengths


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", SIZES)
def test_offdiag_pattern_matches_row_loop(n, seed):
    lengths = row_lengths(n, seed)
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    assert_same_pattern(
        _random_offdiag_pattern(n, lengths, new_rng),
        loop_offdiag_pattern(n, lengths, old_rng),
        new_rng,
        old_rng,
    )


@pytest.mark.parametrize("n", SIZES)
def test_offdiag_pattern_all_rows_empty(n):
    lengths = np.zeros(n, dtype=np.int64)
    new_rng = np.random.default_rng(3)
    old_rng = np.random.default_rng(3)
    assert_same_pattern(
        _random_offdiag_pattern(n, lengths, new_rng),
        loop_offdiag_pattern(n, lengths, old_rng),
        new_rng,
        old_rng,
    )


@pytest.mark.parametrize(
    "clique_mean, clique_min, clique_max",
    [(6.0, 3, 24), (2.0, 1, 4), (18.0, 3, 40), (30.0, 4, 48), (1.0, 0, 2)],
)
@pytest.mark.parametrize("n", SIZES)
def test_clique_pattern_matches_clique_loop(n, clique_mean, clique_min, clique_max):
    new_rng = np.random.default_rng(n)
    old_rng = np.random.default_rng(n)
    assert_same_pattern(
        _clique_pattern(n, clique_mean, new_rng, clique_min, clique_max),
        loop_clique_pattern(n, clique_mean, old_rng, clique_min, clique_max),
        new_rng,
        old_rng,
    )
