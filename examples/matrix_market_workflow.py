#!/usr/bin/env python3
"""External-matrix workflow: .mtx in, reorder, solve, diagnose, report.

The path a user with their own matrices follows: load a Matrix Market
file, try RCM reordering (it always shrinks the bandwidth, and often —
though not always, as this run shows — improves the Row Length Trace's
per-set statistics), solve with Acamar, and inspect the counters.
(The .mtx file is generated locally here so the example runs offline; a
SuiteSparse download drops in unchanged.)

Run:  python examples/matrix_market_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Acamar
from repro.analysis.convergence import render_residual_history
from repro.datasets.generators import sdd_matrix
from repro.fpga import collect_counters, mean_underutilization
from repro.sparse import (
    bandwidth,
    permute_symmetric,
    permute_vector,
    rcm_reorder,
    read_matrix_market,
    unpermute_vector,
    write_matrix_market,
)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_mtx_"))
    mtx_path = workdir / "external_system.mtx"

    # Stand in for a downloaded file: a matrix whose rows were scrambled
    # (as unordered exports often are), killing row-length locality.
    rng = np.random.default_rng(7)
    original = sdd_matrix(1500, 8.0, seed=123, symmetric=True)
    shuffle = rng.permutation(original.n_rows)
    scrambled = permute_symmetric(original, shuffle)
    write_matrix_market(scrambled, mtx_path, comments=["example export"])
    print(f"wrote {mtx_path} ({scrambled.nnz} nnz)")

    # 1. Load.
    matrix = read_matrix_market(mtx_path)
    print(f"loaded: n={matrix.n_rows}, nnz={matrix.nnz}, "
          f"bandwidth={bandwidth(matrix)}")

    # 2. Reorder: RCM shrinks the bandwidth; compare plan quality.
    reordered, perm = rcm_reorder(matrix)
    print(f"after RCM: bandwidth={bandwidth(reordered)}")
    acamar = Acamar()
    for label, m in (("scrambled", matrix), ("RCM-reordered", reordered)):
        plan = acamar.plan(m)
        ru = mean_underutilization(m.row_lengths(), plan.unroll_for_rows)
        print(f"  {label:14s}: Eq.5 R.U. {ru:.1%}, "
              f"{plan.reconfiguration_count} reconfigs/sweep")

    # 3. Solve the reordered system (b must be permuted to match).
    x_true = rng.standard_normal(matrix.n_rows)
    b = matrix.matvec(x_true).astype(np.float32)
    b_reordered = permute_vector(b, perm).astype(np.float32)
    result = acamar.solve(reordered, b_reordered)
    x = unpermute_vector(result.x, perm)
    error = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    print(f"\nsolved via {'->'.join(result.solver_sequence)}: "
          f"converged={result.converged}, forward error={error:.2e}")

    # 4. Inspect.
    print("\nresidual trajectory:")
    print(render_residual_history(result.final, width=48, height=6))
    print("\ncounters:")
    for line in collect_counters(reordered, result).to_lines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
