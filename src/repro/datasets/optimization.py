"""Optimization-problem workloads (Section II-A's second problem stream).

Linear-algebraic cores of optimization problems that reduce to ``Ax = b``:

- **regularized least squares** — the normal equations
  ``(GᵀG + λI) x = Gᵀ y`` of a sparse regression / linear-programming
  subproblem (SPD by construction),
- **network-flow potentials** — the KKT-reduced system of a min-cost-flow
  step, which is a weighted grounded graph Laplacian.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.generators import _choice_rows
from repro.datasets.graph import grounded_laplacian_system
from repro.datasets.problem import Problem
from repro.errors import ConfigurationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def sparse_design_matrix(
    n_samples: int, n_features: int, nnz_per_row: int, seed: int
) -> CSRMatrix:
    """Random sparse design matrix ``G`` for a regression problem."""
    if nnz_per_row < 1 or nnz_per_row > n_features:
        raise ConfigurationError(
            f"nnz_per_row must be in [1, {n_features}], got {nnz_per_row}"
        )
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n_samples), nnz_per_row)
    cols = _choice_rows(n_features, np.full(n_samples, nnz_per_row), rng)
    vals = rng.standard_normal(len(rows))
    return COOMatrix((n_samples, n_features), rows, cols, vals).to_csr()


def normal_equations_system(
    n_samples: int = 4096,
    n_features: int = 1024,
    nnz_per_row: int = 8,
    ridge: float = 1e-2,
    seed: int = 11,
) -> Problem:
    """Ridge-regression normal equations ``(GᵀG + λI) x = Gᵀ y``.

    ``GᵀG`` is assembled explicitly (it is sparse for a sparse ``G``), and
    the true coefficient vector is recovered through the SPD system —
    a realistic CG workload whose row lengths are irregular.
    """
    if ridge <= 0:
        raise ConfigurationError(f"ridge must be > 0, got {ridge}")
    rng = np.random.default_rng(seed)
    design = sparse_design_matrix(n_samples, n_features, nnz_per_row, seed)
    x_true = rng.standard_normal(n_features)
    y = design.matvec(x_true)

    # Assemble G^T G + ridge*I in COO by expanding each sample's outer
    # product over its (few) active features.
    lengths = design.row_lengths()
    rows_acc: list[np.ndarray] = []
    cols_acc: list[np.ndarray] = []
    vals_acc: list[np.ndarray] = []
    for i in range(n_samples):
        lo, hi = design.indptr[i], design.indptr[i + 1]
        feats = design.indices[lo:hi]
        coeffs = design.data[lo:hi]
        grid_r, grid_c = np.meshgrid(feats, feats, indexing="ij")
        outer = np.outer(coeffs, coeffs)
        rows_acc.append(grid_r.ravel())
        cols_acc.append(grid_c.ravel())
        vals_acc.append(outer.ravel())
    rows_acc.append(np.arange(n_features))
    cols_acc.append(np.arange(n_features))
    vals_acc.append(np.full(n_features, ridge))
    gram = COOMatrix(
        (n_features, n_features),
        np.concatenate(rows_acc),
        np.concatenate(cols_acc),
        np.concatenate(vals_acc),
    ).to_csr()

    b = design.rmatvec(y) + ridge * x_true  # so x_true solves exactly
    problem = Problem(
        name=f"normal_equations_{n_samples}x{n_features}",
        matrix=gram,
        b=b.astype(np.float32),
        x_true=x_true,
        metadata={
            "kind": "optimization",
            "n_samples": n_samples,
            "ridge": ridge,
            "avg_row_nnz": float(lengths.mean()),
        },
    )
    return problem


def network_flow_system(
    n_nodes: int = 1024, avg_degree: float = 6.0, seed: int = 13
) -> Problem:
    """Node-potential system of a network-flow optimization step.

    The reduced KKT system of a min-cost-flow Newton step is a weighted
    grounded Laplacian; this wraps the graph module's construction under
    the optimization framing the paper uses.
    """
    problem = grounded_laplacian_system(n_nodes, avg_degree, seed)
    problem.name = f"network_flow_{n_nodes}"
    problem.metadata["kind"] = "optimization"
    return problem
