"""Random sparse-matrix generators for the Table II stand-ins.

SuiteSparse matrices cannot be downloaded in this environment, so each
Table II dataset is replaced by a synthetic matrix engineered to land in
the same *structural class* — the only thing the paper's results depend on
(Section 2 of DESIGN.md).  The constructions and the solver behaviour they
force:

``sdd_matrix``
    Strictly diagonally dominant (Eq. 1), optionally symmetric.  Jacobi
    and Gauss-Seidel converge; with a positive diagonal and symmetry the
    matrix is SPD so CG converges too.
``spd_clique_matrix``
    Symmetric positive definite but *not* diagonally dominant: a union of
    positive-coupling cliques with diagonal ``1 + margin``.  Each size-m
    clique contributes an eigenvalue ``m + margin`` while the diagonal
    stays at ``1 + margin``, so the Jacobi iteration matrix has spectral
    radius ``(m - 1)/(1 + margin) > 1`` — Jacobi diverges, CG converges.
``spd_clique_skew_matrix``
    The previous construction plus a skew-symmetric coupling: no longer
    symmetric (CG fails), Jacobi still divergent, but the symmetric part
    remains positive definite so BiCG-STAB converges.
``sdd_indefinite_matrix``
    Strictly diagonally dominant with *mixed-sign* diagonal entries and a
    non-symmetric pattern: Jacobi converges (dominance bounds the
    iteration matrix), CG fails (non-symmetric/indefinite), and the
    symmetric part is indefinite, which stalls BiCG-STAB's GMRES(1)
    smoothing step (``omega = (As, s)/(As, As)`` crosses zero).
``ill_conditioned_spd_matrix``
    SPD with a tiny definiteness margin: CG's optimal short recurrence
    still reaches 1e-5 in fp32, while BiCG-STAB's irregular residual
    peaks amplify rounding and stagnate or trip the divergence monitor.

All generators take an integer seed and are fully deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _require_rows(n: int, minimum: int = 1) -> None:
    if not n >= minimum:
        raise ConfigurationError(f"n must be >= {minimum}, got {n}")


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def _require_dominance(dominance: float) -> None:
    if not (math.isfinite(dominance) and dominance > 1.0):
        raise ConfigurationError(
            f"dominance must be finite and > 1, got {dominance}"
        )


def sample_row_lengths(
    n: int,
    mean_nnz: float,
    rng: np.random.Generator,
    spread: float = 0.6,
    min_nnz: int = 1,
    max_nnz: int | None = None,
    correlation: float = 0.95,
) -> np.ndarray:
    """Skewed (lognormal), spatially-correlated NNZ/row sample.

    Real scientific matrices have uneven NNZ/row — the very irregularity
    that causes resource underutilization (Section III-B) — *and* the
    unevenness is spatially correlated along the row index (mesh regions,
    variable bands), which is what makes the Row Length Trace's per-set
    averages informative.  The log-lengths follow an AR(1) process with
    the given ``correlation``; ``correlation=0`` recovers an i.i.d.
    lognormal profile.
    """
    _require_rows(n)
    _require_positive("mean_nnz", mean_nnz)
    if mean_nnz < min_nnz:
        raise ConfigurationError(
            f"mean_nnz ({mean_nnz}) must be >= min_nnz ({min_nnz})"
        )
    if not 0.0 <= correlation < 1.0:
        raise ConfigurationError(
            f"correlation must be in [0, 1), got {correlation}"
        )
    _require_finite("spread", spread)
    noise = rng.standard_normal(n)
    # The AR(1) recurrence on Python floats: the same IEEE double
    # operations in the same order as on numpy scalars, without one
    # scalar object per element.
    rho = float(correlation)
    scale = float(np.sqrt(1.0 - correlation**2))
    z = noise.tolist()
    for i in range(1, n):
        z[i] = rho * z[i - 1] + scale * z[i]
    mu = np.log(mean_nnz) - 0.5 * spread**2
    lengths = np.round(np.exp(mu + spread * np.array(z))).astype(np.int64)
    cap = max_nnz if max_nnz is not None else max(min_nnz, n - 1)
    return np.clip(lengths, min_nnz, cap)


def _choice_rows(
    pop: int, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``np.concatenate([rng.choice(pop, k, replace=False) for k in counts])``.

    Returns the same values and leaves ``rng`` in the same state.
    Without replacement, numpy's ``choice`` shuffles the tail of
    ``arange(pop)`` when ``pop > 10000 and k > pop // 50``, and otherwise
    runs Floyd's algorithm and a Fisher-Yates shuffle, which
    :func:`_floyd_rows` replays for a run of consecutive Floyd rows from
    one ``rng.integers`` call.  A tail-branch row calls ``choice``
    itself, at its place in row order.  Every ``k`` must lie in
    ``[0, pop]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    counts = counts[counts > 0]  # an empty choice draws nothing
    ends = np.cumsum(counts)
    starts = ends - counts
    out = np.empty(int(counts.sum()), dtype=np.int64)
    tail = np.flatnonzero(counts > pop // 50).tolist() if pop > 10000 else []
    # At most this many rows per call keeps _floyd_rows' int64 keys
    # ``row * pop + value`` from overflowing.
    max_rows = (2**63 - 1) // max(pop, 1)
    lo = 0
    for row in [*tail, len(counts)]:
        for first in range(lo, row, max_rows):
            stop = min(first + max_rows, row)
            out[starts[first]:ends[stop - 1]] = _floyd_rows(
                pop, counts[first:stop], rng
            )
        if row < len(counts):
            out[starts[row]:ends[row]] = rng.choice(
                pop, size=int(counts[row]), replace=False
            )
        lo = row + 1
    return out


def _floyd_rows(
    pop: int, counts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Floyd-branch ``choice(pop, k)`` rows, every ``k >= 1``, in one call.

    A row makes ``2k - 1`` bounded draws.  For ``t = 0 .. k-1`` it draws
    ``v_t`` in ``[0, pop - k + t]`` and picks ``v_t``, unless the row
    already holds it, in which case it picks ``pop - k + t``.  Then, for
    ``i = k-1`` down to 1, it draws ``d`` in ``[0, i]`` and swaps
    positions ``i`` and ``d``.  The bounds are known before drawing, so
    ``rng.integers`` makes every row's draws in one call.
    """
    per_row = 2 * counts - 1
    k = np.repeat(counts, per_row)
    t = _local_index(per_row)
    is_pick = t < k
    bounds = np.where(is_pick, pop - k + t, 2 * k - 1 - t).astype(np.uint64)
    # With uint64 bounds and dtype, ``integers`` makes one bounded draw
    # per bound, in order, through the routine ``choice`` uses (and other
    # bound dtypes cost a slow conversion pass).
    draws = rng.integers(0, bounds, endpoint=True, dtype=np.uint64)
    picks = draws[is_pick].view(np.int64)
    swaps = draws[~is_pick].view(np.int64)
    starts = np.cumsum(counts) - counts
    # A row whose k draws are distinct picks them all; only a row with a
    # repeated draw redoes Floyd's rule.
    m = len(counts)
    keys = np.repeat(np.arange(m, dtype=np.int64), counts) * pop + picks
    keys.sort()
    repeated = np.unique(keys[1:][keys[1:] == keys[:-1]] // pop)
    for row in repeated.tolist():
        size, lo = int(counts[row]), int(starts[row])
        held: set[int] = set()
        for step, value in enumerate(picks[lo:lo + size].tolist()):
            if value in held:
                value = pop - size + step
            held.add(value)
            picks[lo + step] = value
    # Shuffle step s swaps position k-1-s with the step's draw in every
    # row with k-1 > s; longest rows first, those rows are a prefix.  Row
    # r's k-1 swap draws start at starts[r] - r in ``swaps``.
    order = np.argsort(-counts, kind="stable")
    first = starts[order]
    last = first + counts[order] - 1
    swap_first = (starts - np.arange(m))[order]
    at_least = np.cumsum(np.bincount(counts)[::-1])[::-1]  # rows with k >= c
    for step, active in enumerate(at_least[2:].tolist()):
        i = last[:active] - step
        d = first[:active] + swaps[swap_first[:active] + step]
        picks[i], picks[d] = picks[d], picks[i]
    return picks


def _random_offdiag_pattern(
    n: int, row_lengths: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random off-diagonal coordinates with the requested row lengths."""
    counts = np.clip(np.asarray(row_lengths, dtype=np.int64), 0, max(n - 1, 0))
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cols = _choice_rows(n - 1, counts, rng)
    cols += cols >= rows  # skip the diagonal
    return rows, cols


def _assemble(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    diag: np.ndarray,
    permute: bool,
    rng: np.random.Generator,
) -> CSRMatrix:
    """Add a diagonal, optionally relabel rows/columns, and build CSR.

    No off-diagonal entry lies on the diagonal, so each ``(i, i)`` goes in
    at its row-major place: off-diagonal entries already in row-major
    order then stay in order, and :meth:`COOMatrix.canonical` does not
    sort them.  Other input is sorted as before; the off-diagonal entries
    keep their relative order, so duplicates sum alike.
    """
    diagonal = np.arange(n)
    at = np.searchsorted(rows * n + cols, diagonal * (n + 1))
    all_rows = np.insert(rows, at, diagonal)
    all_cols = np.insert(cols, at, diagonal)
    dtype = np.result_type(vals, diag)
    all_vals = np.insert(vals.astype(dtype, copy=False), at, diag)
    if permute:
        perm = rng.permutation(n)
        all_rows = perm[all_rows]
        all_cols = perm[all_cols]
    return COOMatrix((n, n), all_rows, all_cols, all_vals).to_csr()


def sdd_matrix(
    n: int,
    mean_nnz: float,
    seed: int,
    symmetric: bool = False,
    dominance: float = 1.3,
    spread: float = 0.6,
) -> CSRMatrix:
    """Strictly diagonally dominant matrix (positive diagonal).

    With ``symmetric=True`` the result is SPD (all three solvers
    converge); otherwise it is doubly dominant but non-symmetric (Jacobi
    and BiCG-STAB converge, CG fails).
    """
    _require_dominance(dominance)
    rng = np.random.default_rng(seed)
    lengths = sample_row_lengths(n, mean_nnz, rng, spread)
    rows, cols = _random_offdiag_pattern(n, lengths, rng)
    vals = rng.uniform(0.5, 1.5, size=len(rows)) * rng.choice([-1.0, 1.0], len(rows))
    if symmetric:
        keep = rows < cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        vals = np.concatenate([vals, vals])
    # Deduplicate before computing row sums so dominance holds exactly.
    coo = COOMatrix((n, n), rows, cols, vals).canonical()
    row_abs = np.zeros(n)
    np.add.at(row_abs, coo.rows, np.abs(coo.data))
    col_abs = np.zeros(n)
    np.add.at(col_abs, coo.cols, np.abs(coo.data))
    # Dominance in rows guarantees Jacobi; dominance in columns as well
    # keeps the symmetric part positive definite for BiCG-STAB.
    diag = dominance * np.maximum(np.maximum(row_abs, col_abs), 1.0)
    return _assemble(n, coo.rows, coo.cols, coo.data, diag, False, rng)


def _clique_pattern(
    n: int,
    clique_mean: float,
    rng: np.random.Generator,
    clique_min: int = 3,
    clique_max: int = 24,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition rows into cliques; return the off-diagonal clique pairs."""
    _require_rows(n)
    _require_positive("clique_mean", clique_mean)
    log_mean = np.log(clique_mean)
    starts: list[int] = []
    sizes: list[int] = []
    start = 0
    while start < n:
        size = min(max(round(rng.lognormal(log_mean, 0.4)), clique_min), clique_max)
        size = min(size, n - start)
        if size >= 2:
            starts.append(start)
            sizes.append(size)
        start += max(size, 1)
    if not sizes:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    # Every clique's off-diagonal pairs in row-major order: member ``a``
    # of a size-m clique pairs with the m - 1 local columns ``t``, which
    # skip ``a`` itself.
    size_of = np.array(sizes, dtype=np.int64)
    member_start = np.repeat(np.array(starts, dtype=np.int64), size_of)
    member_size = np.repeat(size_of, size_of)
    local = _local_index(size_of)
    pair_start = np.repeat(member_start, member_size - 1)
    pair_local = np.repeat(local, member_size - 1)
    t = _local_index(member_size - 1)
    return pair_start + pair_local, pair_start + t + (t >= pair_local)


def _local_index(group_sizes: np.ndarray) -> np.ndarray:
    """Position of each element within its group, groups laid end to end."""
    firsts = np.cumsum(group_sizes) - group_sizes
    return np.arange(int(group_sizes.sum())) - np.repeat(firsts, group_sizes)


def spd_clique_matrix(
    n: int,
    clique_mean: float,
    seed: int,
    margin: float = 0.5,
    coupling: float = 1.0,
    clique_min: int = 3,
    clique_max: int = 24,
) -> CSRMatrix:
    """SPD but not diagonally dominant: Jacobi diverges, CG converges.

    Each clique block is ``coupling * (J - I) + (1 + margin) I`` (``J`` the
    all-ones matrix): eigenvalues ``coupling*(m-1) + 1 + margin`` (once)
    and ``1 + margin - coupling`` (m-1 times), so the matrix is PD for
    ``margin > coupling - 1`` while the Jacobi iteration matrix has
    spectral radius ``coupling*(m-1)/(1+margin) > 1`` for cliques of three
    or more rows.
    """
    _require_finite("margin", margin)
    _require_finite("coupling", coupling)
    if margin <= coupling - 1.0:
        raise ConfigurationError(
            f"need margin > coupling - 1 for positive definiteness, got "
            f"margin={margin}, coupling={coupling}"
        )
    rng = np.random.default_rng(seed)
    rows, cols = _clique_pattern(n, clique_mean, rng, clique_min, clique_max)
    vals = np.full(len(rows), coupling)
    diag = np.full(n, 1.0 + margin)
    # Block ordering is kept (no relabeling): FEM-style matrices exhibit
    # exactly this row-length locality, which the Row Length Trace exploits.
    return _assemble(n, rows, cols, vals, diag, False, rng)


def spd_clique_skew_matrix(
    n: int,
    clique_mean: float,
    seed: int,
    gamma: float = 0.5,
    margin: float = 0.5,
    pairs_per_row: float = 2.0,
) -> CSRMatrix:
    """Non-symmetric with PD symmetric part: only BiCG-STAB converges.

    Adds ``gamma``-scaled skew-symmetric couplings to the SPD clique base;
    the symmetric part is untouched (still PD, so BiCG-STAB's smoothing
    steps make progress) but symmetry is broken (CG fails) and the Jacobi
    spectral radius stays above one.
    """
    _require_finite("gamma", gamma)
    _require_finite("margin", margin)
    if not (math.isfinite(pairs_per_row) and pairs_per_row >= 0):
        raise ConfigurationError(
            f"pairs_per_row must be finite and >= 0, got {pairs_per_row}"
        )
    rng = np.random.default_rng(seed)
    base_rows, base_cols = _clique_pattern(n, clique_mean, rng)
    base_vals = np.full(len(base_rows), 1.0)
    n_pairs = int(n * pairs_per_row)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n, size=n_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    w = gamma * rng.uniform(0.5, 1.5, size=len(i))
    rows = np.concatenate([base_rows, i, j])
    cols = np.concatenate([base_cols, j, i])
    vals = np.concatenate([base_vals, w, -w])
    diag = np.full(n, 1.0 + margin)
    return _assemble(n, rows, cols, vals, diag, False, rng)


def sdd_indefinite_matrix(
    n: int,
    mean_nnz: float,
    seed: int,
    neg_fraction: float = 0.5,
    dominance: float = 1.05,
    spread: float = 0.6,
    magnitude_spread: float = 1.5,
) -> CSRMatrix:
    """SDD with mixed-sign diagonal and heterogeneous row scales:
    Jacobi converges, CG and BiCG-STAB fail.

    ``neg_fraction`` of the rows get a negative dominant diagonal, making
    the spectrum straddle the origin; ``magnitude_spread`` rescales whole
    rows by lognormal factors.  Jacobi is per-row scale-invariant and its
    iteration matrix stays below one by strict dominance, so it converges
    regardless.  CG fails on the non-symmetric indefinite operator.
    BiCG-STAB's stabilization factors ``(1 - omega z)`` can damp only one
    side of the origin at a time — with a wide, badly-scaled two-sided
    spectrum the method stagnates or trips the divergence monitor
    (verified empirically per fixed seed in the dataset tests).
    """
    if not 0.0 <= neg_fraction <= 1.0:
        raise ConfigurationError(
            f"neg_fraction must be in [0, 1], got {neg_fraction}"
        )
    _require_dominance(dominance)
    _require_finite("magnitude_spread", magnitude_spread)
    rng = np.random.default_rng(seed)
    lengths = sample_row_lengths(n, mean_nnz, rng, spread)
    rows, cols = _random_offdiag_pattern(n, lengths, rng)
    vals = rng.uniform(0.5, 1.5, size=len(rows)) * rng.choice([-1.0, 1.0], len(rows))
    coo = COOMatrix((n, n), rows, cols, vals).canonical()
    row_abs = np.zeros(n)
    np.add.at(row_abs, coo.rows, np.abs(coo.data))
    signs = np.where(rng.random(n) < neg_fraction, -1.0, 1.0)
    magnitudes = np.exp(rng.normal(0.0, magnitude_spread, n))
    diag = signs * dominance * np.maximum(row_abs, 1.0) * magnitudes
    data = coo.data * magnitudes[coo.rows]
    return _assemble(n, coo.rows, coo.cols, data, diag, False, rng)


def balanced_indefinite_matrix(
    n: int,
    seed: int,
    mean_nnz: float = 6.0,
    coupling: float = 2.0,
    magnitude_spread: float = 0.5,
) -> CSRMatrix:
    """Symmetric indefinite with origin-symmetric spectrum:
    CG converges, Jacobi and BiCG-STAB fail.

    The matrix is ``[[D, C], [C, -D]]`` with ``C`` symmetric and ``D``
    positive diagonal.  Conjugating by ``swap ∘ diag(I, -I)`` maps it to
    its negation, so the spectrum is exactly symmetric about the origin:
    CG's optimal residual polynomial can exploit the symmetry (an even
    polynomial in the operator), while BiCG-STAB's degree-one smoothing
    factors amplify whichever half of the spectrum ``omega`` is not
    targeting, and the heterogeneous row scales (``magnitude_spread``)
    push it past the divergence monitor.  The ``coupling`` strength breaks
    diagonal dominance, so Jacobi diverges.  The regime is narrow — the
    suite pins a verified seed per dataset.
    """
    _require_rows(n, 2)
    _require_positive("mean_nnz", mean_nnz)
    _require_finite("coupling", coupling)
    _require_finite("magnitude_spread", magnitude_spread)
    rng = np.random.default_rng(seed)
    half = n // 2
    rows_list: list[np.ndarray] = []
    cols_list: list[np.ndarray] = []
    for i in range(half):
        k = max(1, int(rng.lognormal(np.log(mean_nnz), 0.5)))
        chosen = rng.choice(half, size=min(k, half), replace=False)
        rows_list.append(np.full(len(chosen), i, dtype=np.int64))
        cols_list.append(chosen.astype(np.int64))
    r = np.concatenate(rows_list)
    c = np.concatenate(cols_list)
    v = rng.uniform(0.5, 1.5, len(r)) * coupling
    # Symmetrize C and scale rows/columns by matched magnitudes so the
    # +/- pairing (and hence the spectral symmetry) is preserved.
    r_sym = np.concatenate([r, c])
    c_sym = np.concatenate([c, r])
    v_sym = np.concatenate([v, v]) * 0.5
    scale = np.exp(rng.normal(0.0, magnitude_spread, half))
    v_sym = v_sym * scale[r_sym] * scale[c_sym]
    diag_mag = scale * scale
    diag_idx = np.arange(half)
    rows = np.concatenate([r_sym, half + r_sym, diag_idx, half + diag_idx])
    cols = np.concatenate([half + c_sym, c_sym, diag_idx, half + diag_idx])
    vals = np.concatenate([v_sym, v_sym, diag_mag, -diag_mag])
    return COOMatrix((n, n), rows, cols, vals).to_csr()


def ill_conditioned_spd_matrix(
    n: int,
    clique_mean: float,
    seed: int,
    margin: float = 2e-3,
    coupling: float = 1.0,
) -> CSRMatrix:
    """Nearly-singular SPD: CG converges in fp32, BiCG-STAB does not.

    Same clique construction as :func:`spd_clique_matrix` but with the
    clique coupling shaped so the smallest eigenvalue is ``margin``:
    block ``coupling*(J - I) + (coupling - 1 + 1 + margin) I``.  The huge
    condition number makes BiCG-STAB's residual polynomial (a product of
    locally-minimizing GMRES(1) factors) oscillate with large peaks that,
    in 32-bit arithmetic, either stagnate above the 1e-5 threshold or trip
    the divergence monitor; CG's globally optimal polynomial still grinds
    through.
    """
    _require_finite("margin", margin)
    _require_finite("coupling", coupling)
    rng = np.random.default_rng(seed)
    rows, cols = _clique_pattern(n, clique_mean, rng, clique_min=3, clique_max=40)
    vals = np.full(len(rows), coupling)
    diag = np.full(n, coupling + margin)
    return _assemble(n, rows, cols, vals, diag, True, rng)
