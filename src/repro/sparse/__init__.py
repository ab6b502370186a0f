"""From-scratch sparse-matrix substrate.

The paper's accelerator consumes matrices in Compressed Sparse Row (CSR)
format and re-reads them as Compressed Sparse Column (CSC) to test
symmetry.  This package implements those operations for the solvers and
cost models, without depending on ``scipy.sparse``:

- :class:`~repro.sparse.coo.COOMatrix` — triplet build format,
- :class:`~repro.sparse.csr.CSRMatrix` — the compute format, with a
  vectorized SpMV and a cached transpose that doubles as the CSC view,
- :mod:`~repro.sparse.properties` — structural-property analysis (strict
  diagonal dominance, symmetry as CSR vs cached transpose, definiteness
  probes, spectral radius),
- :mod:`~repro.sparse.stats` — row-set partitioning feeding the
  Fine-Grained Reconfiguration unit.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.io import read_matrix_market, write_matrix_market
from repro.sparse.properties import (
    MatrixProperties,
    analyze_properties,
    is_strictly_diagonally_dominant,
    is_symmetric,
    jacobi_iteration_spectral_radius,
    positive_definite_probe,
)
from repro.sparse.reorder import (
    bandwidth,
    permute_symmetric,
    permute_vector,
    rcm_permutation,
    rcm_reorder,
    unpermute_vector,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "bandwidth",
    "MatrixProperties",
    "analyze_properties",
    "is_strictly_diagonally_dominant",
    "is_symmetric",
    "jacobi_iteration_spectral_radius",
    "positive_definite_probe",
    "permute_symmetric",
    "permute_vector",
    "rcm_permutation",
    "rcm_reorder",
    "read_matrix_market",
    "unpermute_vector",
    "write_matrix_market",
]
