"""Property-based invariants of ``PerformanceModel.acamar_latency``.

The solve is fixed (one plan, one kernel tally per attempt), and only the
matrix the model prices varies, so each check isolates the cost model:

- every time it reports is non-negative;
- storing more entries in rows never lowers the modeled SpMV or compute
  seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcamarConfig
from repro.core.accelerator import AcamarResult, SolverAttempt
from repro.core.finegrained import FineGrainedReconfigurationUnit
from repro.core.matrix_structure import MatrixStructureUnit
from repro.fpga import PerformanceModel
from repro.solvers.base import OpCounter, SolveResult, SolveStatus
from repro.sparse import COOMatrix

SOLVERS = ("cg", "bicgstab", "jacobi")


@st.composite
def tallies(draw, n: int) -> OpCounter:
    ops = OpCounter()
    for _ in range(draw(st.integers(0, 40))):
        ops.record("spmv", n)
    for kind in OpCounter.DENSE_KINDS:
        for _ in range(draw(st.integers(0, 6))):
            ops.record(kind, n)
    return ops


@st.composite
def priced_solves(draw):
    """A matrix, the same matrix with entries added, and one fixed solve."""
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = draw(st.integers(0, 6 * n))
    rows = np.r_[np.arange(n), rng.integers(0, n, entries)]
    cols = np.r_[np.arange(n), rng.integers(0, n, entries)]
    base = COOMatrix((n, n), rows, cols, np.ones(len(rows))).to_csr()
    extra = draw(st.integers(1, 4 * n))
    grown_rows = np.r_[rows, rng.integers(0, n, extra)]
    grown_cols = np.r_[cols, rng.integers(0, n, extra)]
    grown = COOMatrix(
        (n, n), grown_rows, grown_cols, np.ones(len(grown_rows))
    ).to_csr()
    solvers = draw(st.lists(
        st.sampled_from(SOLVERS), min_size=1, max_size=3, unique=True
    ))
    attempts = tuple(
        SolverAttempt(
            solver=name,
            selected_by="matrix_structure" if i == 0 else "solver_modifier",
            result=SolveResult(
                solver=name,
                status=SolveStatus.DIVERGED,
                x=np.zeros(n),
                iterations=draw(st.integers(0, 40)),
                residual_history=np.zeros(0),
                ops=draw(tallies(n)),
            ),
        )
        for i, name in enumerate(solvers)
    )
    result = AcamarResult(
        selection=MatrixStructureUnit().select_solver(base),
        plan=FineGrainedReconfigurationUnit(AcamarConfig()).plan(base),
        attempts=attempts,
    )
    return base, grown, result


@given(priced_solves())
@settings(max_examples=100, deadline=None)
def test_every_modeled_time_is_non_negative(case):
    base, grown, result = case
    model = PerformanceModel()
    for matrix in (base, grown):
        report = model.acamar_latency(matrix, result)
        assert report.solver_swap_seconds >= 0.0
        assert report.compute_seconds >= 0.0
        assert report.total_seconds >= 0.0
        for attempt in report.attempts:
            assert attempt.init_seconds >= 0.0
            assert attempt.spmv_seconds >= 0.0
            assert attempt.dense_seconds >= 0.0
            assert attempt.reconfig_seconds >= 0.0
            assert attempt.compute_seconds >= 0.0
            assert attempt.total_seconds >= 0.0


@given(priced_solves())
@settings(max_examples=100, deadline=None)
def test_more_stored_entries_never_cost_less(case):
    base, grown, result = case
    # ``grown`` stores every entry of ``base``; an added draw may repeat one.
    assert np.all(grown.to_dense()[base.to_dense() != 0] != 0)
    model = PerformanceModel()
    before = model.acamar_latency(base, result)
    after = model.acamar_latency(grown, result)
    for old, new in zip(before.attempts, after.attempts):
        assert new.spmv_seconds >= old.spmv_seconds
        assert new.init_seconds >= old.init_seconds
        assert new.compute_seconds >= old.compute_seconds
        assert new.reconfig_seconds == old.reconfig_seconds
    assert after.compute_seconds >= before.compute_seconds
    assert after.total_seconds >= before.total_seconds
