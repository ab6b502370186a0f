"""Hot-path throughput benchmark: cached substrate vs the pre-cache seed.

Measures end-to-end solve throughput (solves/sec and iterations/sec) per
solver family on the 256x256 (65,536-row) 2-D Poisson problem, running
each family twice: once on :class:`LegacySubstrateMatrix` — a faithful
re-implementation of the seed's uncached kernels (per-call ``np.repeat``
row ids, ``np.add.at`` scatter rmatvec, re-validating constructors) —
and once on the current cached :class:`~repro.sparse.csr.CSRMatrix`.

Every round builds a fresh matrix, so the "after" numbers include all
one-time plan/cache construction: the speedup reported is for a single
cold solve, not an amortized warm loop.

A ``build`` section prices the cold input itself: the CPU seconds of the
65,536-row SDD operator of the end-to-end ``solve-65k`` workload, and of
the bare per-row ``Generator.choice`` loop on the same row lengths, which
is what drawing its pattern one row at a time costs.  ``speedup = row
loop / build`` is above two while the generator makes every row's draws
in one bounded-integer call and the structure work is linear; a return
to per-row draws brings it below one.

Run directly to (re)generate the committed machine-readable record::

    PYTHONPATH=src python benchmarks/bench_hot_path.py

which writes ``benchmarks/BENCH_hotpath.json``.  Under pytest the module
acts as the CI hot-path guard: it re-measures the BiCG-STAB, BiCG and
build speedup ratios, and fails if any regresses more than 30 % below
its reference in :data:`GUARD_REFERENCES` (ratios of two runs on the
same machine are portable across runners, unlike absolute solves/sec).
The references are host-time ratios, so they are kept here rather than
read from the record; raise one deliberately after a substrate change,
and say why in the commit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.datasets.generators import sample_row_lengths, sdd_matrix
from repro.datasets.pde import poisson_2d
from repro.solvers import (
    BiCGSolver,
    BiCGStabSolver,
    ConjugateGradientSolver,
    JacobiSolver,
)
from repro.sparse.csr import CSRMatrix

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"

GRID = 256
ROUNDS = 3
BUILD_ROWS = GRID * GRID
BUILD_MEAN_NNZ = 8.0
BUILD_SEED = 1
GUARD_RELATIVE_TOLERANCE = 0.30
"""Allowed regression of a pinned hot-path ratio (30 %)."""
GUARD_REFERENCES = {
    "hotpath_bicgstab_speedup": 2.3194,
    "hotpath_bicg_speedup": 1.2916,
    "hotpath_build_speedup": 2.9367,
}
"""The reference of each guarded ratio; the guard fails below
``(1 - GUARD_RELATIVE_TOLERANCE)`` times it."""


class LegacySubstrateMatrix(CSRMatrix):
    """CSR matrix with the seed's (pre-caching) kernel implementations.

    Reproduces the substrate this PR replaced: no structure cache, row
    ids rebuilt with ``np.repeat`` on every call, ``rmatvec`` as an
    ``np.add.at`` scatter, and derived matrices built through the
    validating public constructor.  Used only as the benchmark baseline.
    """

    __slots__ = ()

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows), self.row_lengths())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out_dtype = np.result_type(self.data, x)
        products = self.data * x[self.indices]
        result = np.zeros(self.n_rows, dtype=out_dtype)
        nonempty = self.indptr[:-1] != self.indptr[1:]
        if np.any(nonempty):
            starts = self.indptr[:-1][nonempty]
            result[nonempty] = np.add.reduceat(products, starts)
        return result

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out_dtype = np.result_type(self.data, x)
        row_of = np.repeat(np.arange(self.n_rows), self.row_lengths())
        result = np.zeros(self.n_cols, dtype=out_dtype)
        np.add.at(result, self.indices, self.data * x[row_of])
        return result

    def diagonal(self) -> np.ndarray:
        n = min(self.shape)
        diag = np.zeros(n, dtype=self.data.dtype)
        row_of = np.repeat(np.arange(self.n_rows), self.row_lengths())
        on_diag = (row_of == self.indices) & (self.indices < n)
        diag[self.indices[on_diag]] = self.data[on_diag]
        return diag

    def without_diagonal(self) -> "LegacySubstrateMatrix":
        row_of = np.repeat(np.arange(self.n_rows), self.row_lengths())
        keep = row_of != self.indices
        new_counts = np.bincount(row_of[keep], minlength=self.n_rows)
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        return LegacySubstrateMatrix(
            self.shape, indptr, self.indices[keep], self.data[keep]
        )

    def transpose(self) -> "LegacySubstrateMatrix":
        n_rows, n_cols = self.shape
        counts = np.bincount(self.indices, minlength=n_cols)
        indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        row_of = np.repeat(np.arange(n_rows), self.row_lengths())
        order = np.argsort(self.indices, kind="stable")
        return LegacySubstrateMatrix(
            (n_cols, n_rows), indptr, row_of[order], self.data[order]
        )

    def astype(self, dtype: np.dtype | type) -> "LegacySubstrateMatrix":
        return LegacySubstrateMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(),
            self.data.astype(dtype),
        )

    def with_data(self, data: np.ndarray) -> "LegacySubstrateMatrix":
        # The seed's Jacobi built T through the validating constructor.
        return LegacySubstrateMatrix(
            self.shape, self.indptr, self.indices, np.asarray(data)
        )


FAMILIES: tuple[tuple[str, type, int | None], ...] = (
    # (family, solver class, iteration cap — None means to convergence)
    ("bicgstab", BiCGStabSolver, None),
    ("cg", ConjugateGradientSolver, 60),
    ("jacobi", JacobiSolver, 60),
    ("bicg", BiCGSolver, 30),
)


def _solver(cls: type, cap: int | None):
    if cap is None:
        return cls()
    return cls(max_iterations=cap)


def _time_family(
    matrix_cls: type, solver, problem, rounds: int = ROUNDS
) -> dict[str, float]:
    """Best-of-``rounds`` wall time; each round gets a cold matrix."""
    matrices = [
        matrix_cls(
            problem.matrix.shape,
            problem.matrix.indptr.copy(),
            problem.matrix.indices.copy(),
            problem.matrix.data.copy(),
        )
        for _ in range(rounds)
    ]
    best = np.inf
    result = None
    for matrix in matrices:
        start = time.perf_counter()
        result = solver.solve(matrix, problem.b)
        best = min(best, time.perf_counter() - start)
    iterations = int(result.iterations)
    return {
        "wall_s": round(best, 6),
        "iterations": iterations,
        "converged": bool(result.converged),
        "solves_per_sec": round(1.0 / best, 4),
        "iters_per_sec": round(iterations / best, 2) if iterations else 0.0,
    }


def _row_loop_once() -> float:
    """CPU seconds of the build's draws made one row at a time."""
    rng = np.random.default_rng(BUILD_SEED)
    lengths = sample_row_lengths(BUILD_ROWS, BUILD_MEAN_NNZ, rng)
    counts = np.minimum(lengths, BUILD_ROWS - 1).tolist()
    start = time.process_time()
    for k in counts:
        if k:
            rng.choice(BUILD_ROWS - 1, size=k, replace=False)
    return time.process_time() - start


def _time_build(rounds: int = ROUNDS) -> dict[str, float]:
    """Best-of-``rounds`` CPU seconds of the build and of the per-row loop."""
    build = np.inf
    row_loop = np.inf
    for _ in range(rounds):
        start = time.process_time()
        sdd_matrix(BUILD_ROWS, BUILD_MEAN_NNZ, seed=BUILD_SEED, symmetric=False,
                   dominance=1.05)
        build = min(build, time.process_time() - start)
        row_loop = min(row_loop, _row_loop_once())
    return {
        "build_cpu_s": round(build, 6),
        "row_loop_cpu_s": round(row_loop, 6),
        "speedup": round(row_loop / build, 4),
    }


def measure(rounds: int = ROUNDS) -> dict:
    """Run every family on both substrates, then price the cold build."""
    problem = poisson_2d(GRID)
    families: dict[str, dict] = {}
    for name, cls, cap in FAMILIES:
        before = _time_family(
            LegacySubstrateMatrix, _solver(cls, cap), problem, rounds
        )
        after = _time_family(CSRMatrix, _solver(cls, cap), problem, rounds)
        families[name] = {
            "before": before,
            "after": after,
            "speedup": round(before["wall_s"] / after["wall_s"], 4),
        }
    return {
        "schema_version": 1,
        "problem": {
            "name": f"poisson_2d({GRID})",
            "n_rows": int(problem.matrix.n_rows),
            "nnz": int(problem.matrix.nnz),
        },
        "rounds": rounds,
        "families": families,
        "build": {
            "call": (
                f"sdd_matrix({BUILD_ROWS}, {BUILD_MEAN_NNZ}, seed={BUILD_SEED}, "
                "symmetric=False, dominance=1.05)"
            ),
            **_time_build(rounds),
        },
    }


def guarded_ratios(report: dict) -> dict[str, float]:
    """The ratios pinned by :data:`GUARD_REFERENCES`."""
    ratios = {
        f"hotpath_{name}_speedup": report["families"][name]["speedup"]
        for name in ("bicgstab", "bicg")
    }
    ratios["hotpath_build_speedup"] = report["build"]["speedup"]
    return ratios


# ----------------------------------------------------------------------
# CI guard (pytest entry points)
# ----------------------------------------------------------------------


def test_hot_path_speedup_guard():
    """Measured hot-path ratios may not regress >30% below their
    references."""
    measured = guarded_ratios(measure())
    failures = []
    for name, reference in sorted(GUARD_REFERENCES.items()):
        value = measured[name]
        floor = (1.0 - GUARD_RELATIVE_TOLERANCE) * reference
        if value < floor:
            failures.append(f"{name}: measured {value:.3f} < floor {floor:.3f}")
    assert not failures, "; ".join(failures)


def main() -> int:  # pragma: no cover - CLI
    report = measure()
    with open(BENCH_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in report["families"].items():
        print(
            f"{name:9s} before {entry['before']['wall_s']:.4f}s "
            f"after {entry['after']['wall_s']:.4f}s "
            f"speedup {entry['speedup']:.2f}x"
        )
    build = report["build"]
    print(
        f"build     {build['build_cpu_s']:.4f}s cpu, per-row loop "
        f"{build['row_loop_cpu_s']:.4f}s, speedup {build['speedup']:.2f}x"
    )
    print(f"written: {BENCH_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
