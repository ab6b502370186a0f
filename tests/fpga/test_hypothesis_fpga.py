"""Property-based tests on the FPGA cycle models."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.fpga import ALVEO_U55C, spmv_sweep
from repro.fpga.utilization import (
    mean_underutilization,
    occupancy_underutilization,
    row_underutilization,
)


def padded_slots_for_unroll(row_lengths: np.ndarray, unroll: int) -> int:
    """Slots a fixed-unroll unit streams: rows padded to unroll multiples.

    The storage of a blocked ELL layout with block width ``unroll``;
    the cost model's provisioned MAC-cycles must equal it.
    """
    lengths = np.asarray(row_lengths, dtype=np.int64)
    chunks = np.maximum(1, -(-lengths // unroll))
    return int((chunks * unroll).sum())


row_length_arrays = arrays(
    np.int64,
    st.integers(1, 200),
    elements=st.integers(0, 500),
)


@given(row_length_arrays, st.integers(1, 128))
@settings(max_examples=120, deadline=None)
def test_sweep_accounting_invariants(lengths, unroll):
    report = spmv_sweep(lengths, unroll, ALVEO_U55C)
    assert report.busy_mac_cycles == lengths.sum()
    assert report.provisioned_mac_cycles >= report.busy_mac_cycles
    assert report.cycles > 0
    assert report.flops == 2.0 * lengths.sum()
    # Provisioned slots equal the padded block-ELL storage.
    assert report.provisioned_mac_cycles == padded_slots_for_unroll(
        lengths, unroll
    )


@given(row_length_arrays)
@settings(max_examples=80, deadline=None)
def test_sweep_cycles_monotone_in_unroll(lengths):
    cycles = [
        spmv_sweep(lengths, u, ALVEO_U55C).cycles for u in (1, 2, 4, 8, 16)
    ]
    assert all(a >= b for a, b in zip(cycles, cycles[1:]))


@given(row_length_arrays, st.integers(1, 128))
@settings(max_examples=120, deadline=None)
def test_underutilization_metrics_bounded(lengths, unroll):
    eq5 = mean_underutilization(lengths, unroll)
    occupancy = occupancy_underutilization(lengths, unroll)
    assert 0.0 <= eq5 <= 1.0
    assert 0.0 <= occupancy < 1.0 or lengths.sum() == 0
    per_row = row_underutilization(lengths, unroll)
    assert np.all((0.0 <= per_row) & (per_row <= 1.0))


@given(row_length_arrays)
@settings(max_examples=80, deadline=None)
def test_matched_unroll_minimizes_occupancy_waste(lengths):
    """Choosing U = each row's own nnz wastes nothing (beyond empties)."""
    per_row_unroll = np.maximum(lengths, 1)
    waste = occupancy_underutilization(lengths, per_row_unroll)
    if np.all(lengths > 0):
        assert waste == 0.0
