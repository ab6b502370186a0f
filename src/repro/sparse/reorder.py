"""Matrix reordering (Reverse Cuthill-McKee).

Acamar's Resource Decision loop exploits *spatial locality* in the
NNZ/row profile: the Row Length Trace averages per contiguous row set,
so matrices whose similar rows are scattered get mediocre plans.  RCM —
the classic bandwidth-reducing permutation — clusters connected (and
hence similar) rows together, which tightens per-set row-length variance
and reduces both Eq. 5 waste and reconfiguration events.  The ablation
benchmark quantifies this; this module provides the permutation machinery
from scratch (BFS with degree-sorted tie-breaking, per connected
component, reversed).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigurationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _symmetrized_adjacency(matrix: CSRMatrix) -> CSRMatrix:
    """Structural adjacency of ``A + A.T`` with the diagonal removed."""
    transpose = matrix.transpose()
    rows = np.concatenate([matrix.row_ids(), transpose.row_ids()])
    cols = np.concatenate([matrix.indices, transpose.indices])
    keep = rows != cols
    return COOMatrix(
        (matrix.n_rows, matrix.n_rows),
        rows[keep],
        cols[keep],
        np.ones(int(keep.sum())),
    ).to_csr()


def rcm_permutation(matrix: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of a square sparse matrix.

    Returns ``perm`` such that row/column ``perm[i]`` of the original
    matrix becomes row/column ``i`` of the reordered one.  Each connected
    component is BFS-traversed from a minimum-degree seed with neighbors
    visited in increasing-degree order; the final order is reversed.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError(
            f"RCM needs a square matrix, got {matrix.shape}"
        )
    n = matrix.shape[0]
    if n == 0:
        return np.array([], dtype=np.int64)
    adjacency = _symmetrized_adjacency(matrix)
    degrees = adjacency.row_lengths()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    # Process components seeded by globally increasing degree.
    seeds = np.argsort(degrees, kind="stable")
    for seed in seeds:
        if visited[seed]:
            continue
        visited[seed] = True
        queue: deque[int] = deque([int(seed)])
        while queue:
            node = queue.popleft()
            order.append(node)
            lo, hi = adjacency.indptr[node], adjacency.indptr[node + 1]
            neighbors = adjacency.indices[lo:hi]
            fresh = neighbors[~visited[neighbors]]
            if len(fresh):
                fresh = fresh[np.argsort(degrees[fresh], kind="stable")]
                visited[fresh] = True
                queue.extend(int(v) for v in fresh)
    return np.asarray(order[::-1], dtype=np.int64)


def permute_symmetric(matrix: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Apply a symmetric permutation: ``B = P A P.T``.

    ``B[i, j] = A[perm[i], perm[j]]`` — the similarity transform that
    preserves every spectral/structural property the solvers care about.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = matrix.shape[0]
    if sorted(perm.tolist()) != list(range(n)):
        raise ConfigurationError("perm must be a permutation of 0..n-1")
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)
    row_of = matrix.row_ids()
    return COOMatrix(
        matrix.shape,
        inverse[row_of],
        inverse[matrix.indices],
        matrix.data.copy(),
    ).to_csr()


def bandwidth(matrix: CSRMatrix) -> int:
    """Maximum |row - column| over stored entries (0 for diagonal/empty)."""
    if matrix.nnz == 0:
        return 0
    row_of = matrix.row_ids()
    return int(np.abs(row_of - matrix.indices).max())


def rcm_reorder(matrix: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """Convenience: compute the RCM permutation and apply it.

    Returns ``(reordered_matrix, perm)``; solve the reordered system with
    ``b[perm]`` and map the solution back with ``x_original = x[inverse]``
    (see :func:`permute_vector` / :func:`unpermute_vector`).
    """
    perm = rcm_permutation(matrix)
    return permute_symmetric(matrix, perm), perm


def permute_vector(vector: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Reorder a vector to match a permuted system (``b -> P b``)."""
    return np.asarray(vector)[perm]


def unpermute_vector(vector: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Map a permuted system's solution back to original numbering."""
    perm = np.asarray(perm, dtype=np.int64)
    out = np.empty_like(np.asarray(vector))
    out[perm] = np.asarray(vector)
    return out
