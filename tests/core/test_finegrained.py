"""Tests for the Fine-Grained Reconfiguration unit and its plans."""

import numpy as np
import pytest

from repro.config import AcamarConfig
from repro.core.finegrained import (
    FineGrainedReconfigurationUnit,
    RowLengthTrace,
    plan_reconfiguration_rate,
    quantize_unroll,
    unsmoothed_event_count,
)
from repro.datasets import dataset_keys
from repro.datasets.generators import sdd_matrix
from repro.experiments import runner
from repro.fpga import mean_underutilization


@pytest.fixture
def matrix():
    return sdd_matrix(512, 8.0, seed=7)


class TestQuantize:
    def test_rounds_to_nearest(self):
        assert quantize_unroll(4.4, 64) == 4
        assert quantize_unroll(4.6, 64) == 5

    def test_clamps_to_bounds(self):
        assert quantize_unroll(0.2, 64) == 1
        assert quantize_unroll(200.0, 64) == 64

    def test_rounding_up_trades_utilization_for_latency(self):
        """Ablation A3: Eq. 7's rounding mode over the Table II stand-ins."""
        model = runner.performance_model()
        modes = ("floor", "nearest", "ceil")
        cycles = {mode: [] for mode in modes}
        ru = {mode: [] for mode in modes}
        for key in dataset_keys():
            matrix = runner.problem(key).matrix
            lengths = matrix.row_lengths()
            for mode in modes:
                unrolls = FineGrainedReconfigurationUnit(
                    AcamarConfig(unroll_rounding=mode)
                ).plan(matrix).unroll_for_rows
                cycles[mode].append(model.spmv_unit_sweep(lengths, unrolls).cycles)
                ru[mode].append(mean_underutilization(lengths, unrolls))
        # Rounding up provisions at least as many MACs: the fastest policy
        # on aggregate (the MSID chain merges different runs under
        # different raw traces, so single datasets may differ) ...
        assert np.mean(cycles["ceil"]) <= np.mean(cycles["nearest"])
        assert np.mean(cycles["nearest"]) <= np.mean(cycles["floor"])
        assert all(c <= f for c, f in zip(cycles["ceil"], cycles["floor"]))
        # ... and it wastes at least as much fabric on average.
        assert np.mean(ru["ceil"]) >= np.mean(ru["floor"]) - 0.02


class TestRowLengthTrace:
    def test_set_bounds_cover_rows(self, matrix):
        trace = RowLengthTrace(sampling_rate=32, chunk_size=4096)
        bounds = trace.set_bounds(matrix.n_rows)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == matrix.n_rows
        assert len(bounds) == 32

    def test_chunking_produces_sets_per_chunk(self):
        trace = RowLengthTrace(sampling_rate=4, chunk_size=100)
        bounds = trace.set_bounds(250)
        # chunks: 100, 100, 50 -> 4 + 4 + 4 sets
        assert len(bounds) == 12
        assert bounds[3] == (75, 100)   # first chunk ends at 100
        assert bounds[4] == (100, 125)  # second chunk starts fresh

    def test_trace_averages(self, matrix):
        trace = RowLengthTrace(sampling_rate=8, chunk_size=4096)
        averages, bounds = trace.trace(matrix)
        lengths = matrix.row_lengths()
        for avg, (lo, hi) in zip(averages, bounds):
            assert avg == pytest.approx(lengths[lo:hi].mean())


class TestPlan:
    def test_plan_covers_every_row_once(self, matrix):
        plan = FineGrainedReconfigurationUnit(AcamarConfig()).plan(matrix)
        assert plan.sets[0].start_row == 0
        assert plan.sets[-1].stop_row == matrix.n_rows
        for a, b in zip(plan.sets, plan.sets[1:]):
            assert a.stop_row == b.start_row

    def test_first_set_never_flagged_reconfigure(self, matrix):
        plan = FineGrainedReconfigurationUnit(AcamarConfig()).plan(matrix)
        assert not plan.sets[0].reconfigure

    def test_reconfigure_flags_match_unroll_changes(self, matrix):
        plan = FineGrainedReconfigurationUnit(AcamarConfig()).plan(matrix)
        for previous, current in zip(plan.sets, plan.sets[1:]):
            assert current.reconfigure == (current.unroll != previous.unroll)

    def test_unroll_for_rows_expands_sets(self, matrix):
        plan = FineGrainedReconfigurationUnit(AcamarConfig()).plan(matrix)
        per_row = plan.unroll_for_rows
        assert len(per_row) == matrix.n_rows
        for row_set in plan.sets:
            np.testing.assert_array_equal(
                per_row[row_set.start_row : row_set.stop_row], row_set.unroll
            )

    def test_msid_reduces_or_keeps_events(self, matrix):
        config_off = AcamarConfig(r_opt=0)
        config_on = AcamarConfig(r_opt=8)
        unit_off = FineGrainedReconfigurationUnit(config_off).plan(matrix)
        unit_on = FineGrainedReconfigurationUnit(config_on).plan(matrix)
        assert unit_on.reconfiguration_count <= unit_off.reconfiguration_count
        assert unsmoothed_event_count(unit_on) == unit_off.reconfiguration_count

    def test_msid_cuts_events_on_the_stand_ins(self):
        """Ablation A1: rOpt=8 against rOpt=0 on every Table II stand-in.

        The R.U. half of the ablation is Figure 11's spread claim in
        ``repro.experiments.summary.collect``."""
        events = {
            r_opt: [
                FineGrainedReconfigurationUnit(AcamarConfig(r_opt=r_opt))
                .plan(runner.problem(key).matrix).reconfiguration_count
                for key in dataset_keys()
            ]
            for r_opt in (0, 8)
        }
        assert all(on <= off for on, off in zip(events[8], events[0]))
        assert sum(events[8]) < sum(events[0])

    def test_unrolls_track_row_lengths(self):
        """A matrix with two clearly distinct halves must get two unrolls."""
        lengths = np.array([2] * 64 + [16] * 64)
        rows = np.repeat(np.arange(128), lengths)
        cols = np.concatenate([np.arange(k) for k in lengths])
        from repro.sparse import COOMatrix

        matrix = COOMatrix((128, 128), rows, cols, np.ones(len(rows))).to_csr()
        plan = FineGrainedReconfigurationUnit(
            AcamarConfig(sampling_rate=8, r_opt=0)
        ).plan(matrix)
        assert plan.sets[0].unroll == 2
        assert plan.sets[-1].unroll == 16

    def test_rate_with_single_set(self):
        matrix = sdd_matrix(64, 4.0, seed=1)
        plan = FineGrainedReconfigurationUnit(
            AcamarConfig(sampling_rate=1)
        ).plan(matrix)
        assert len(plan.sets) == 1
        assert plan.reconfiguration_count == 0
        assert plan_reconfiguration_rate(plan) == 0.0

    def test_unroll_respects_max(self, matrix):
        config = AcamarConfig(max_unroll=4)
        plan = FineGrainedReconfigurationUnit(config).plan(matrix)
        assert max(s.unroll for s in plan.sets) <= 4
        assert min(s.unroll for s in plan.sets) >= 1


class TestStreamingTrace:
    def test_stream_matches_vectorized_trace(self, matrix):
        trace = RowLengthTrace(sampling_rate=32, chunk_size=4096)
        averages, bounds = trace.trace(matrix)
        streamed = list(trace.stream(matrix.indptr))
        assert len(streamed) == len(bounds)
        for (lo, hi, avg), (blo, bhi), expected in zip(
            streamed, bounds, averages
        ):
            assert (lo, hi) == (blo, bhi)
            assert avg == pytest.approx(expected)

    def test_stream_with_chunking(self):
        matrix = sdd_matrix(700, 5.0, seed=9)
        trace = RowLengthTrace(sampling_rate=8, chunk_size=256)
        averages, bounds = trace.trace(matrix)
        streamed = list(trace.stream(matrix.indptr))
        assert [s[:2] for s in streamed] == bounds
        np.testing.assert_allclose([s[2] for s in streamed], averages)

    def test_stream_empty_matrix(self):
        trace = RowLengthTrace(sampling_rate=8, chunk_size=256)
        assert list(trace.stream(np.array([0]))) == []
