"""The generators' random stream is a contract: oracle tests.

``_random_offdiag_pattern`` and ``sparse_design_matrix`` draw every row's
``Generator.choice(pop, k, replace=False)`` through ``_choice_rows``,
which replays numpy's Floyd-and-shuffle draws with one bounded-integer
call per run of rows.  ``_clique_pattern`` keeps only its draws in a
Python loop, and ``sample_row_lengths`` runs its AR(1) recurrence on
Python floats.  The per-row, per-clique and numpy-scalar loops they
replaced are kept here as oracles: the new code must return equal arrays
and leave the generator in an equal state.  Comparisons run in-process,
since numpy does not promise ``Generator`` streams across versions.
"""

import numpy as np
import pytest

from repro import datasets
from repro.datasets import generators
from repro.datasets.generators import (
    _choice_rows,
    _clique_pattern,
    _random_offdiag_pattern,
    sample_row_lengths,
)
from repro.sparse.coo import COOMatrix


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


def loop_row_lengths(
    n, mean_nnz, rng, spread=0.6, min_nnz=1, max_nnz=None, correlation=0.95
):
    """The AR(1) recurrence on numpy scalars (the replaced loop)."""
    noise = rng.standard_normal(n)
    z = np.empty(n)
    z[0] = noise[0]
    scale = np.sqrt(1.0 - correlation**2)
    for i in range(1, n):
        z[i] = correlation * z[i - 1] + scale * noise[i]
    mu = np.log(mean_nnz) - 0.5 * spread**2
    lengths = np.round(np.exp(mu + spread * z)).astype(np.int64)
    cap = max_nnz if max_nnz is not None else max(min_nnz, n - 1)
    return np.clip(lengths, min_nnz, cap)


def loop_design_matrix(n_samples, n_features, nnz_per_row, seed):
    """One ``Generator.choice`` per sample (the replaced loop)."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_samples), nnz_per_row)
    cols = np.concatenate(
        [rng.choice(n_features, size=nnz_per_row, replace=False)
         for _ in range(n_samples)]
    )
    vals = rng.standard_normal(len(rows))
    return COOMatrix((n_samples, n_features), rows, cols, vals).to_csr()


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


def tail_branch_lengths(pop):
    """Floyd rows around rows at numpy's branch boundary.

    ``choice`` shuffles the tail of ``arange(pop)`` when ``pop > 10000``
    and ``k > pop // 50``.  Rows at ``k = pop // 50`` and ``pop // 50 + 1``
    and a row asking for every column sit between runs of Floyd rows,
    and two rows at ``pop // 50 + 1`` sit back to back.
    """
    cut = pop // 50
    lengths = np.zeros(pop + 1, dtype=np.int64)
    head = [3, 7, 1, cut, 5, 2, cut + 1, 4, 0, 9, pop, 6, cut + 1, cut + 1,
            1, cut, 8, 3]
    lengths[:len(head)] = head
    return lengths


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pop", [10_000, 10_001, 20_000])
def test_offdiag_pattern_matches_row_loop_across_numpy_branches(pop, seed):
    lengths = tail_branch_lengths(pop)
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    assert_same_pattern(
        _random_offdiag_pattern(pop + 1, lengths, new_rng),
        loop_offdiag_pattern(pop + 1, lengths, old_rng),
        new_rng,
        old_rng,
    )


class CountingGenerator(np.random.Generator):
    """The ``default_rng(seed)`` stream, logging its draw calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = []

    def choice(self, a, size=None, *args, **kwargs):
        self.calls.append(("choice", size))
        return super().choice(a, size, *args, **kwargs)

    def integers(self, low, high=None, *args, **kwargs):
        self.calls.append(("integers", np.size(high)))
        return super().integers(low, high, *args, **kwargs)


@pytest.mark.parametrize("pop", [10_000, 10_001, 20_000])
def test_choice_rows_calls_choice_only_on_numpy_tail_rows(pop):
    """One ``integers`` call of 2k - 1 draws a row per run of Floyd rows;
    ``choice`` only where numpy would shuffle the tail."""
    counts = tail_branch_lengths(pop)
    expected = []
    run = 0
    for k in counts.tolist():
        if pop > 10_000 and k > pop // 50:
            expected += [("integers", run)] if run else []
            expected.append(("choice", k))
            run = 0
        elif k:
            run += 2 * k - 1
    expected += [("integers", run)] if run else []
    rng = CountingGenerator(0)
    _choice_rows(pop, counts, rng)
    assert rng.calls == expected


def test_choice_rows_splits_calls_where_row_keys_would_overflow():
    """Over 2**63 // pop rows, one call per block of rows keeps the int64
    keys ``row * pop + value`` exact."""
    pop = 2**62
    counts = np.array([2, 3, 2, 1])
    rng = CountingGenerator(5)
    got = _choice_rows(pop, counts, rng)
    old_rng = np.random.default_rng(5)
    want = [old_rng.choice(pop, size=k, replace=False) for k in counts]
    np.testing.assert_array_equal(got, np.concatenate(want))
    assert rng.bit_generator.state == old_rng.bit_generator.state
    assert rng.calls == [("integers", 2 * k - 1) for k in counts.tolist()]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3, 8, 33, 65])
def test_offdiag_pattern_matches_row_loop_on_repeated_draws(n, seed):
    """Rows asking for nearly every column repeat Floyd draws."""
    lengths = np.random.default_rng(seed).integers(max(n - 4, 1), n, size=n)
    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    assert_same_pattern(
        _random_offdiag_pattern(n, lengths, new_rng),
        loop_offdiag_pattern(n, lengths, old_rng),
        new_rng,
        old_rng,
    )


@pytest.mark.parametrize("max_nnz", [None, 10**6])
@pytest.mark.parametrize("correlation", [0.0, 0.95])
@pytest.mark.parametrize("n", [1, 2, 65_536])
def test_row_lengths_match_numpy_scalar_loop(n, correlation, max_nnz):
    new_rng = np.random.default_rng(n)
    old_rng = np.random.default_rng(n)
    got = sample_row_lengths(
        n, 8.0, new_rng, max_nnz=max_nnz, correlation=correlation
    )
    want = loop_row_lengths(
        n, 8.0, old_rng, max_nnz=max_nnz, correlation=correlation
    )
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize(
    "n_samples, n_features, nnz_per_row, seed",
    [
        (4096, 1024, 8, 11),  # normal_equations_system's default design
        (300, 30, 30, 2),  # every feature: Floyd repeats in every row
        (40, 20_000, 401, 3),  # numpy's tail branch in every row
        (40, 20_001, 400, 4),  # the largest Floyd row at that size
    ],
)
def test_design_matrix_matches_sample_loop(
    n_samples, n_features, nnz_per_row, seed
):
    got = datasets.sparse_design_matrix(
        n_samples, n_features, nnz_per_row, seed
    )
    want = loop_design_matrix(n_samples, n_features, nnz_per_row, seed)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def solve_65k_operators(seed):
    """The three 65,536-row problems of the end-to-end ``solve-65k`` run."""
    sdd = datasets.sdd_matrix(
        65536, 8.0, seed=seed, symmetric=False, dominance=1.05
    )
    return [
        datasets.poisson_2d(256, seed=seed),
        datasets.convection_diffusion_2d(256, seed=seed),
        datasets.manufacture_problem("sdd_65536", sdd, seed=seed),
    ]


@pytest.mark.parametrize("seed", [1, 7])
def test_solve_65k_operators_match_oracle_loops(seed, monkeypatch):
    built = solve_65k_operators(seed)
    monkeypatch.setattr(generators, "sample_row_lengths", loop_row_lengths)
    monkeypatch.setattr(
        generators, "_random_offdiag_pattern", loop_offdiag_pattern
    )
    oracle = solve_65k_operators(seed)
    for got, want in zip(built, oracle):
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(got.matrix, name), getattr(want.matrix, name)
            )
        np.testing.assert_array_equal(got.b, want.b)
