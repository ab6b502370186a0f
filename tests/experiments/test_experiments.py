"""Tests for the experiment harness.

Every paper-figure claim is checked as a whole in
``repro.experiments.summary.collect``, which ``test_summary.py`` runs on
a six-dataset subset and on all 25 stand-ins.  This file tests the
runner, Table I, each figure's experiment module on that subset (one
test class per artifact, named after it, so a failure points at the
module), the one Figure 13 property that holds on the subset only, and
the claims of the three extension experiments (E1-E3).
"""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.experiments import (
    ALL_EXPERIMENTS,
    extended_coverage,
    fig1,
    fig10,
    fig11,
    fig12,
    fig13,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    kernel_mix,
    precision_study,
    table1,
    table2,
)
from repro.experiments.runner import resolve_keys

SUBSET = ("2C", "Wi", "Fe", "Bc", "If", "Po")
"""One dataset from each structural class (all five Table II patterns)."""


class TestRunner:
    def test_resolve_none_gives_all(self):
        assert len(resolve_keys(None)) == 25

    def test_resolve_validates(self):
        with pytest.raises(DatasetError):
            resolve_keys(("nope",))

    def test_experiment_index_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "fig1", "fig2", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "ext_coverage", "ext_kernel_mix", "ext_precision",
        }


class TestTable1:
    def test_renders_eleven_criteria(self):
        table = table1.run()
        assert len(table.rows) == 11


class TestTable2:
    def test_patterns_match_on_subset(self):
        table = table2.run(SUBSET)
        assert all(table.column("matches paper"))
        assert all(table.column("Acamar"))


class TestFig1:
    def test_spmv_dominates(self):
        table = fig1.run(SUBSET)
        shares = table.column("spmv_share")
        assert np.mean(shares) > 0.5
        assert all(0.0 < s < 1.0 for s in shares)


class TestFig2:
    def test_no_single_best_unroll(self):
        table = fig2.run(SUBSET)
        assert len(set(table.column("best URB"))) > 1

    def test_underutilization_grows_at_large_unroll(self):
        table = fig2.run(SUBSET)
        assert np.mean(table.column("URB=64")) > np.mean(table.column("URB=4"))


class TestFig5:
    def test_rate_monotone_and_saturating(self):
        table = fig5.run(SUBSET)
        mean_row = table.rows[-1]
        assert mean_row[0] == "MEAN"
        rates = list(mean_row[1:])
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        # flat beyond rOpt=8 (paper's pick); the drop from rOpt=8 to
        # rOpt=12 must be far smaller than the drop from 0 to 8
        tail = rates[-3] - rates[-1]
        head = rates[0] - rates[-3]
        assert tail < 0.1
        assert tail < head / 2


class TestFig6:
    def test_speedup_large_at_urb1_and_flattening(self):
        table = fig6.run(SUBSET)
        gmean = table.rows[-1]
        assert gmean[0] == "GMEAN"
        values = list(gmean[1:])
        assert values[0] > 3.0  # URB=1: order-of-magnitude territory
        assert values[0] > values[2] > values[3]  # decaying
        assert abs(values[-1] - values[-2]) < 0.15  # flat past URB=32


class TestFig7:
    def test_improvement_grows_with_baseline_unroll(self):
        table = fig7.run(SUBSET)
        per_row = [row[1:] for row in table.rows]
        for values in per_row:
            assert values[-1] > values[0]

    def test_reaches_paper_scale(self):
        table = fig7.run(SUBSET)
        assert max(max(row[1:]) for row in table.rows) > 1.8


class TestFig8:
    def test_acamar_beats_gpu_everywhere(self):
        table = fig8.run(SUBSET)
        for row in table.rows[:-1]:
            assert row[1] < row[2], row


class TestFig9:
    def test_acamar_near_paper_average(self):
        table = fig9.run(SUBSET)
        mean = table.rows[-1]
        assert 0.55 < mean[1] < 0.9  # paper: ~70%
        assert mean[3] < 0.02  # GPU a few percent at most


class TestFig10:
    def test_acamar_more_area_efficient_on_average(self):
        table = fig10.run(SUBSET)
        mean = table.rows[-1]
        assert mean[1] > mean[2] * 0.8  # efficiency at least comparable
        assert mean[5] > 1.0  # positive mean area saving


class TestFig11:
    def test_latency_drift_small(self):
        table = fig11.run(SUBSET)
        lat_columns = [i for i, h in enumerate(table.headers) if h.startswith("lat@")]
        for row in table.rows:
            for i in lat_columns:
                assert abs(row[i] - 1.0) < 0.25


class TestFig12:
    def test_underutilization_decreases_with_sampling(self):
        table = fig12.run(SUBSET)
        mean = table.rows[-1]
        assert mean[1] > mean[-1]  # S=4 worse than S=256


class TestFig13:
    def test_budget_positive_for_reference_urb(self):
        table = fig13.run(SUBSET)
        budgets = table.column("budget_ms")
        assert all(b > 0 for b in budgets)


class TestExtensions:
    def test_e1_no_single_solver_covers_every_dataset(self):
        marks = [row[1:] for row in extended_coverage.run().rows]
        # Some solver converges on every dataset (Acamar's guarantee) ...
        assert all(any(row) for row in marks)
        # ... but none on all of them: a bigger menu is no substitute.
        assert not any(all(column) for column in zip(*marks))

    def test_e2_kernel_shares_follow_each_algorithm(self):
        table = kernel_mix.run()
        dot, scale = table.headers.index("dot"), table.headers.index("scale")
        for row in table.rows:
            assert 0.97 < sum(row[2:]) < 1.03, row  # shares partition the time
            assert row[2] > 0.5, row  # SpMV dominates every solver
        # Jacobi spends dense time in scale/vadd, Krylov methods in dot/axpy.
        jacobi = [row for row in table.rows if row[1] == "jacobi"]
        krylov = [row for row in table.rows if row[1] in ("cg", "bicgstab")]
        assert all(row[dot] == 0 and row[scale] > 0 for row in jacobi)
        assert np.mean([row[dot] for row in krylov]) > 0.02

    def test_e3_fp64_flips_few_outcomes_and_breaks_none(self):
        table = precision_study.run()
        assert sum(table.column("changed")) <= 3
        for row in table.rows:
            fp32, fp64 = row[1:4], row[4:7]
            assert all(b for a, b in zip(fp32, fp64) if a), row
