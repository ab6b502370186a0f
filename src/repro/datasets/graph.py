"""Graph-theory workloads (Section II-A's third problem stream).

The paper motivates ``Ax = b`` with spectral graph theory: Laplacian
systems encode circuit place-and-route, spanning-tree constraints, and
diffusion on networks.  A graph Laplacian is singular (the all-ones
vector), so the standard solvable forms are provided:

- the **grounded Laplacian** (delete one vertex's row/column), SPD, and
- the **regularized Laplacian** ``L + εI``, SPD with a tunable margin.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.problem import Problem, manufacture_problem
from repro.errors import ConfigurationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def random_graph_edges(
    n: int, avg_degree: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random weighted undirected graph (Erdős–Rényi-style edge sample).

    Returns ``(u, v, w)`` arrays with ``u < v`` and positive weights.
    """
    if n < 2:
        raise ConfigurationError(f"need at least two vertices, got {n}")
    if avg_degree <= 0:
        raise ConfigurationError(f"avg_degree must be > 0, got {avg_degree}")
    rng = np.random.default_rng(seed)
    n_edges = int(n * avg_degree / 2)
    u = rng.integers(0, n, size=2 * n_edges)
    v = rng.integers(0, n, size=2 * n_edges)
    keep = u < v
    u, v = u[keep][:n_edges], v[keep][:n_edges]
    # Guarantee connectivity with a random spanning path.
    perm = rng.permutation(n)
    u = np.concatenate([u, np.minimum(perm[:-1], perm[1:])])
    v = np.concatenate([v, np.maximum(perm[:-1], perm[1:])])
    w = rng.uniform(0.5, 1.5, size=len(u))
    return u, v, w


def laplacian_matrix(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int
) -> CSRMatrix:
    """Weighted graph Laplacian ``L = D - W`` from an edge list."""
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([v, u, u, v])
    degree_w = np.concatenate([-w, -w, w, w])
    return COOMatrix((n, n), rows, cols, degree_w).to_csr()


def grounded_laplacian_system(
    n: int, avg_degree: float = 6.0, seed: int = 7
) -> Problem:
    """SPD Laplacian system with vertex 0 grounded (row/column removed).

    Models a resistive circuit with node 0 tied to ground; the solution is
    the node-voltage vector for a random current injection.
    """
    u, v, w = random_graph_edges(n, avg_degree, seed)
    full = laplacian_matrix(u, v, w, n)
    dense = full.to_dense()[1:, 1:]
    matrix = CSRMatrix.from_dense(dense)
    return manufacture_problem(
        f"grounded_laplacian_{n}",
        matrix,
        seed=seed,
        metadata={"kind": "graph", "n_vertices": n, "grounded": 0},
    )


def regularized_laplacian_system(
    n: int, avg_degree: float = 6.0, epsilon: float = 1e-2, seed: int = 7
) -> Problem:
    """SPD system ``(L + εI) x = b`` (graph diffusion / spectral methods)."""
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    u, v, w = random_graph_edges(n, avg_degree, seed)
    lap = laplacian_matrix(u, v, w, n)
    coo = lap.to_coo()
    rows = np.concatenate([coo.rows, np.arange(n)])
    cols = np.concatenate([coo.cols, np.arange(n)])
    vals = np.concatenate([coo.data, np.full(n, epsilon)])
    matrix = COOMatrix((n, n), rows, cols, vals).to_csr()
    return manufacture_problem(
        f"regularized_laplacian_{n}",
        matrix,
        seed=seed,
        metadata={"kind": "graph", "n_vertices": n, "epsilon": epsilon},
    )
