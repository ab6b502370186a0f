"""Batched-campaign acceptance benchmark: shared host analysis must pay.

``repro campaign --batch`` groups problems that share one operator and
runs the host-side work — the Matrix Structure unit's property checks
and the Fine-Grained unit's unroll planning — once per group instead of
once per member.  This benchmark measures that on the acceptance
workload: K=8 solves over the 65,536-row 2-D Poisson operator (one
operator, eight seeded right-hand sides, each member a cold copy as a
separate request would carry).

Two sections are recorded:

- ``host`` — host analysis seconds per solve, sequential (every member
  re-analyzes a cold matrix) vs batched (one analysis plus the group's
  value-verification overhead, shared by all eight).  Its
  ``host_per_solve_speedup`` is pinned by the ``batched_*`` band
  (it lands near 8x because the batch is eight-way).
- ``campaign`` — what the user sees end to end: CPU seconds of
  ``run_campaign`` over the eight problems with ``batch=False`` and
  with ``batch=True``.  ``ratio`` is unbatched over batched, so at
  least 1.0 means batching pays; the committed record must show that.

Byte-identity is asserted inside ``measure()``: the benchmark refuses
to report a ratio for a batched campaign whose CSV differs from the
unbatched one.

Run directly to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_batched.py

which writes ``benchmarks/BENCH_batched.json``.  Under pytest the module
guards the ``batched_*`` entries in ``reference_bands.json`` at the
usual 30 % tolerance and re-checks the committed record against its
acceptance floors.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.campaign import run_campaign
from repro.config import AcamarConfig
from repro.core import Acamar
from repro.datasets.pde import poisson_2d
from repro.datasets.problem import Problem
from repro.sparse.csr import CSRMatrix

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_batched.json"
BANDS_PATH = Path(__file__).resolve().parent / "reference_bands.json"

GRID = 256
BATCH_K = 8
ROUNDS = 3
GUARD_RELATIVE_TOLERANCE = 0.30
"""Allowed regression of a pinned batched speedup ratio (30 %)."""

ACCEPTANCE_RATIO = 2.0
"""Acceptance floor: batched host seconds per solve must beat the
sequential path by at least 2x on the K=8 acceptance workload."""

CAMPAIGN_ACCEPTANCE_RATIO = 1.0
"""Acceptance floor: a batched campaign may not cost more CPU end to
end than the same campaign unbatched."""


def _fresh_copy(matrix: CSRMatrix) -> CSRMatrix:
    """A cold matrix (empty structure caches), as a new request carries."""
    return CSRMatrix(
        matrix.shape,
        matrix.indptr.copy(),
        matrix.indices.copy(),
        matrix.data.copy(),
    )


def _host_analysis(acamar: Acamar, matrix: CSRMatrix) -> None:
    """The per-operator host work the batch amortizes."""
    acamar.matrix_structure.select_solver(matrix)
    acamar.fine_grained.plan(matrix)


def _measure_host(matrix: CSRMatrix, rounds: int) -> dict[str, float]:
    """Best-of-``rounds`` host-analysis seconds, sequential vs batched."""
    config = AcamarConfig()
    best_seq = np.inf
    best_batched = np.inf
    for _ in range(rounds):
        acamar = Acamar(config)
        members = [_fresh_copy(matrix) for _ in range(BATCH_K)]
        start = time.perf_counter()
        for member in members:
            _host_analysis(acamar, member)
        best_seq = min(best_seq, time.perf_counter() - start)

        acamar = Acamar(config)
        members = [_fresh_copy(matrix) for _ in range(BATCH_K)]
        start = time.perf_counter()
        lead = members[0]
        # The group solver's value-verification overhead is part of the
        # batched cost: analysis may only be shared once values match.
        for member in members[1:]:
            assert lead.structurally_equal(member)
            assert np.array_equal(lead.data, member.data)
        _host_analysis(acamar, lead)
        best_batched = min(best_batched, time.perf_counter() - start)
    return {
        "sequential_s": round(best_seq, 6),
        "batched_s": round(best_batched, 6),
        "sequential_per_solve_s": round(best_seq / BATCH_K, 6),
        "batched_per_solve_s": round(best_batched / BATCH_K, 6),
        "host_per_solve_speedup": round(best_seq / best_batched, 4),
    }


def _campaign_csv(problems: list[Problem], batch: bool) -> tuple[float, bytes]:
    """CPU seconds of one ``run_campaign`` call, and its CSV bytes."""
    start = time.process_time()
    report = run_campaign(problems, batch=batch)
    cpu_s = time.process_time() - start
    with tempfile.TemporaryDirectory() as tmp:
        csv = report.to_csv(Path(tmp) / "campaign.csv").read_bytes()
    return cpu_s, csv


def _measure_campaign(
    matrix: CSRMatrix, bs: list[np.ndarray], rounds: int
) -> dict[str, float]:
    """Best-of-``rounds`` campaign CPU seconds, batching off vs on.

    Every member carries a cold copy of the operator.  Also asserts
    that the two campaigns write byte-identical CSVs.
    """
    def population() -> list[Problem]:
        return [
            Problem(name=f"poisson_2d({GRID})#{k}",
                    matrix=_fresh_copy(matrix), b=b)
            for k, b in enumerate(bs)
        ]

    best_off = np.inf
    best_on = np.inf
    for _ in range(rounds):
        off_s, off_csv = _campaign_csv(population(), batch=False)
        on_s, on_csv = _campaign_csv(population(), batch=True)
        assert on_csv == off_csv, "batched campaign CSV differs"
        best_off = min(best_off, off_s)
        best_on = min(best_on, on_s)
    return {
        "problems": len(bs),
        "unbatched_cpu_s": round(best_off, 6),
        "batched_cpu_s": round(best_on, 6),
        "ratio": round(best_off / best_on, 4),
    }


def measure(rounds: int = ROUNDS) -> dict:
    problem = poisson_2d(GRID)
    matrix = problem.matrix
    rng = np.random.default_rng(2024)
    base = problem.b.astype(np.float32)
    # A fingerprint-sharing batch in the wild: the same operator under a
    # swept load amplitude.  Each member is a distinct bit pattern and
    # converges on its own schedule (the float32 recurrences diverge
    # immediately), but all stay in the well-conditioned forcing family.
    bs = [
        np.float32(1.0 + 0.2 * rng.standard_normal()) * base
        for _ in range(BATCH_K)
    ]
    host = _measure_host(matrix, rounds)
    campaign = _measure_campaign(matrix, bs, rounds)
    return {
        "schema_version": 1,
        "problem": {
            "name": f"poisson_2d({GRID})",
            "n_rows": int(matrix.n_rows),
            "nnz": int(matrix.nnz),
        },
        "batch_k": BATCH_K,
        "rounds": rounds,
        "host": host,
        "campaign": campaign,
    }


def guarded_speedups(report: dict) -> dict[str, float]:
    """The ratios pinned by ``reference_bands.json``."""
    return {
        "batched_host_per_solve_speedup": report["host"][
            "host_per_solve_speedup"
        ],
    }


# ----------------------------------------------------------------------
# CI guard (pytest entry points)
# ----------------------------------------------------------------------


def test_batched_host_speedup_guard():
    """Measured batched speedups may not regress >30% below the bands."""
    with open(BANDS_PATH) as fh:
        bands = json.load(fh)
    report = measure()
    measured = guarded_speedups(report)
    failures = []
    for name, reference in sorted(bands.items()):
        if not name.startswith("batched_"):
            continue
        value = measured[name]
        floor = (1.0 - GUARD_RELATIVE_TOLERANCE) * float(reference)
        if value < floor:
            failures.append(f"{name}: measured {value:.3f} < floor {floor:.3f}")
    assert not failures, "; ".join(failures)


def test_batched_meets_acceptance_speedup():
    """The committed record shows the >=2x host-per-solve acceptance win
    and a batched campaign at least as fast as an unbatched one."""
    with open(BENCH_PATH) as fh:
        committed = json.load(fh)
    assert committed["host"]["host_per_solve_speedup"] >= ACCEPTANCE_RATIO
    assert committed["batch_k"] >= 8
    assert committed["campaign"]["ratio"] >= CAMPAIGN_ACCEPTANCE_RATIO


def main() -> int:  # pragma: no cover - CLI
    report = measure()
    with open(BENCH_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    host = report["host"]
    campaign = report["campaign"]
    print(
        f"host analysis  seq {host['sequential_s']:.4f}s "
        f"batched {host['batched_s']:.4f}s "
        f"per-solve speedup {host['host_per_solve_speedup']:.2f}x"
    )
    print(
        f"campaign cpu   off {campaign['unbatched_cpu_s']:.4f}s "
        f"on {campaign['batched_cpu_s']:.4f}s "
        f"ratio {campaign['ratio']:.2f}x"
    )
    print(f"written: {BENCH_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
