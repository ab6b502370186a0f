"""PDE discretizations (Section II-A's motivating workload).

Finite-difference discretizations that reduce PDEs to ``Ax = b``, exactly
as the paper's introduction describes: the 2-D/3-D Poisson equation (heat
conduction, electrostatics) on a regular grid with Dirichlet boundaries,
and a convection–diffusion operator whose upwinded convection term makes
the matrix non-symmetric — the case where the Matrix Structure unit routes
to BiCG-STAB.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasets.problem import Problem, manufacture_problem
from repro.errors import ConfigurationError
from repro.sparse.csr import CSRMatrix


def _stencil_matrix(
    dims: tuple[int, ...],
    center: float,
    lower: tuple[float, ...],
    upper: tuple[float, ...],
) -> CSRMatrix:
    """Nearest-neighbour stencil on a grid of ``dims`` points (Dirichlet).

    Axes run slowest first, so point ``(i_0, …, i_{d-1})`` is row
    ``Σ i_k · stride_k``.  A row couples to itself with ``center`` and,
    along axis ``k``, to the previous point with ``lower[k]`` and to the
    next with ``upper[k]`` where that neighbour exists.  Each row lists
    its couplings in ascending offset order (``-stride_0 … -1, 0, 1 …
    stride_0``), which is ascending column order, so the CSR arrays are
    built directly, with no sort.
    """
    n = math.prod(dims)
    strides = [math.prod(dims[axis + 1:]) for axis in range(len(dims))]
    point = np.arange(n)
    position = [point // stride % size for stride, size in zip(strides, dims)]
    offsets = [-stride for stride in strides] + [0] + strides[::-1]
    values = [*lower, center, *upper[::-1]]
    present = (
        [at > 0 for at in position]
        + [np.ones(n, dtype=bool)]
        + [at < size - 1 for at, size in zip(position[::-1], dims[::-1])]
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.sum(present, axis=0), out=indptr[1:])
    # Row-major selection: each row's couplings, in offset order.
    mask = np.stack(present, axis=1)
    indices = (point[:, None] + np.array(offsets))[mask]
    data = np.broadcast_to(np.array(values, dtype=np.float64), mask.shape)[mask]
    return CSRMatrix((n, n), indptr, indices, data)


def poisson_2d_matrix(nx: int, ny: int | None = None) -> CSRMatrix:
    """Five-point Laplacian on an ``nx × ny`` interior grid (Dirichlet).

    The classic SPD model problem: diagonal 4, neighbors -1.  It is
    weakly (not strictly) diagonally dominant and irreducible, so Jacobi
    still converges — slowly, which is what makes solver choice matter.
    """
    ny = ny if ny is not None else nx
    if nx < 1 or ny < 1:
        raise ConfigurationError(f"grid must be at least 1x1, got {nx}x{ny}")
    return _stencil_matrix((ny, nx), 4.0, (-1.0, -1.0), (-1.0, -1.0))


def poisson_3d_matrix(
    nx: int, ny: int | None = None, nz: int | None = None
) -> CSRMatrix:
    """Seven-point Laplacian on an ``nx × ny × nz`` interior grid."""
    ny = ny if ny is not None else nx
    nz = nz if nz is not None else nx
    if min(nx, ny, nz) < 1:
        raise ConfigurationError(f"grid must be at least 1x1x1, got {nx}x{ny}x{nz}")
    return _stencil_matrix((nz, ny, nx), 6.0, (-1.0,) * 3, (-1.0,) * 3)


def convection_diffusion_2d_matrix(
    nx: int, peclet: float = 10.0, ny: int | None = None
) -> CSRMatrix:
    """Upwinded convection–diffusion on a 2-D grid (non-symmetric).

    Discretizes ``-Δu + p ∂u/∂x`` with first-order upwinding of the
    convective term.  ``peclet`` is the cell Péclet number ``p·h``; larger
    values make the matrix more non-symmetric, steering the Matrix
    Structure unit away from CG.
    """
    ny = ny if ny is not None else nx
    if nx < 1 or ny < 1:
        raise ConfigurationError(f"grid must be at least 1x1, got {nx}x{ny}")
    if peclet < 0:
        raise ConfigurationError(f"peclet must be >= 0, got {peclet}")
    # Flow in +x: upwind difference takes (1 + peclet) from the left
    # neighbor, 1 from the right.
    return _stencil_matrix(
        (ny, nx), 4.0 + peclet, (-1.0, -(1.0 + peclet)), (-1.0, -1.0)
    )


def poisson_2d(nx: int, ny: int | None = None, seed: int = 1) -> Problem:
    """2-D Poisson problem with a manufactured solution."""
    matrix = poisson_2d_matrix(nx, ny)
    return manufacture_problem(
        f"poisson_2d_{nx}x{ny if ny else nx}",
        matrix,
        seed=seed,
        metadata={"kind": "pde", "grid": (nx, ny if ny else nx)},
    )


def poisson_3d(nx: int, ny: int | None = None, nz: int | None = None,
               seed: int = 1) -> Problem:
    """3-D Poisson problem with a manufactured solution."""
    matrix = poisson_3d_matrix(nx, ny, nz)
    return manufacture_problem(
        f"poisson_3d_{nx}", matrix, seed=seed,
        metadata={"kind": "pde", "grid": (nx, ny or nx, nz or nx)},
    )


def convection_diffusion_2d(
    nx: int, peclet: float = 10.0, seed: int = 1
) -> Problem:
    """Non-symmetric convection–diffusion problem."""
    matrix = convection_diffusion_2d_matrix(nx, peclet)
    return manufacture_problem(
        f"convection_diffusion_{nx}_pe{peclet:g}", matrix, seed=seed,
        metadata={"kind": "pde", "peclet": peclet},
    )
