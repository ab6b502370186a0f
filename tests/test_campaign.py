"""Tests for the campaign runner."""

import csv
import gzip
import shutil

import numpy as np
import pytest

from repro.campaign import (
    CampaignReport,
    failure_entry,
    problem_name_from_path,
    run_campaign,
)
from repro.config import AcamarConfig
from repro.datasets import poisson_2d
from repro.datasets.problem import Problem
from repro.errors import DatasetError
from repro.sparse.io import write_matrix_market


class TestSources:
    def test_dataset_keys(self):
        report = run_campaign(["Wa", "Li"])
        assert len(report.entries) == 2
        assert report.convergence_rate == 1.0

    def test_problem_instances(self):
        report = run_campaign([poisson_2d(10), poisson_2d(12)])
        assert [e.n for e in report.entries] == [100, 144]

    def test_mtx_files(self, tmp_path):
        problem = poisson_2d(8)
        path = tmp_path / "poisson.mtx"
        write_matrix_market(problem.matrix, path)
        report = run_campaign([str(path)])
        assert report.entries[0].name == "poisson"
        assert report.entries[0].converged

    def test_mixed_sources(self, tmp_path):
        path = tmp_path / "grid.mtx"
        write_matrix_market(poisson_2d(8).matrix, path)
        report = run_campaign(["Wa", poisson_2d(10), str(path)])
        assert len(report.entries) == 3

    def test_unknown_source_rejected(self):
        with pytest.raises(DatasetError, match="cannot resolve"):
            run_campaign(["not-a-key"])


class TestAggregation:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(["Wa", "Fe", "If"])

    def test_solver_mix_counts_final_solver(self, report):
        mix = report.solver_mix
        assert sum(mix.values()) == 3
        assert mix.get("jacobi", 0) >= 1  # Fe converges via jacobi

    def test_statistics_in_range(self, report):
        assert report.convergence_rate == 1.0
        assert 0.0 < report.mean_underutilization < 1.0
        assert 0.0 < report.mean_throughput <= 1.0
        assert report.total_compute_ms > 0

    def test_summary_lines(self, report):
        lines = report.summary_lines()
        assert any("convergence rate" in line for line in lines)
        assert any("100%" in line for line in lines)

    def test_csv_export(self, report, tmp_path):
        path = report.to_csv(tmp_path / "campaign.csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert rows[0][0] == "name"

    def test_config_forwarded(self):
        config = AcamarConfig(max_iterations=5)
        report = run_campaign([poisson_2d(16)], config=config)
        # Cap of 5 iterations: CG cannot converge; campaign records it.
        assert report.convergence_rate < 1.0

    def test_empty_campaign(self):
        report = run_campaign([])
        assert report.convergence_rate == 0.0
        assert report.solver_mix == {}
        assert report.mean_throughput == 0.0

    def test_empty_campaign_summary_is_well_formed(self):
        report = run_campaign([])
        assert report.entries == []
        assert report.failures == []
        assert report.mean_underutilization == 0.0
        assert report.total_compute_ms == 0.0
        lines = report.summary_lines()
        assert any("systems solved        : 0" in line for line in lines)
        assert any("convergence rate      : 0%" in line for line in lines)


class TestResolveNames:
    """Regression: `.mtx.gz` sources must not keep a stray `.mtx` suffix."""

    def test_problem_name_from_path(self):
        assert problem_name_from_path("runs/wang3.mtx") == "wang3"
        assert problem_name_from_path("runs/wang3.mtx.gz") == "wang3"

    def test_gz_source_name_has_no_mtx_suffix(self, tmp_path):
        plain = tmp_path / "grid.mtx"
        write_matrix_market(poisson_2d(8).matrix, plain)
        gz_path = tmp_path / "grid.mtx.gz"
        with open(plain, "rb") as src, gzip.open(gz_path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        report = run_campaign([str(gz_path)])
        assert report.entries[0].name == "grid"
        assert report.entries[0].converged


class TestFailurePaths:
    def test_unresolvable_source_names_the_source(self):
        with pytest.raises(DatasetError, match="'bogus-key'"):
            run_campaign(["Wa", "bogus-key"])

    def test_missing_mtx_path_raises_dataset_error(self):
        with pytest.raises(DatasetError, match="does-not-exist.mtx"):
            run_campaign(["does-not-exist.mtx"])

    def test_unresolvable_source_rejected_before_any_solve(self):
        # Eager validation: the bad source aborts the campaign up front,
        # even when it comes last.
        with pytest.raises(DatasetError):
            run_campaign([poisson_2d(8), "bogus-key"])

    def test_solve_crash_becomes_failure_entry(self):
        good = poisson_2d(8)
        bad = Problem(name="bad_rhs", matrix=good.matrix, b=np.ones(3))
        report = run_campaign([bad, good])
        assert len(report.entries) == 2
        first, second = report.entries
        assert first.failed and not first.converged
        assert first.name == "bad_rhs"
        assert first.failure  # "ExceptionType: message"
        assert second.converged and not second.failed
        assert report.failures == [first]
        assert any("failures" in line for line in report.summary_lines())

    def test_failure_entry_shape(self):
        entry = failure_entry("broken", "ValueError: nope")
        assert entry.failed
        assert entry.solver_sequence == ()
        assert entry.iterations == 0
        report = CampaignReport(entries=[entry])
        assert report.convergence_rate == 0.0
        assert report.solver_mix == {}

    def test_failure_recorded_in_csv(self, tmp_path):
        good = poisson_2d(8)
        bad = Problem(name="bad_rhs", matrix=good.matrix, b=np.ones(3))
        report = run_campaign([bad, good])
        path = report.to_csv(tmp_path / "campaign.csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[-1] == "failure"
        assert rows[1][-1] != ""
        assert rows[2][-1] == ""


class TestParallelCampaign:
    KEYS = ["Wa", "Li", "Fe", "If", "Qa", "Th"]

    @staticmethod
    def signature(report):
        return [
            (e.name, e.converged, e.iterations, e.solver_sequence)
            for e in report.entries
        ]

    def test_parallel_matches_serial(self):
        serial = run_campaign(self.KEYS)
        parallel = run_campaign(self.KEYS, workers=2)
        assert self.signature(serial) == self.signature(parallel)

    def test_parallel_engine_stats_in_telemetry(self):
        report = run_campaign(self.KEYS, workers=2)
        counters = report.telemetry.counters
        assert counters["parallel.chunks"] >= 1
        assert "parallel.pool_restarts" not in counters
        assert "parallel.workers_lost" not in counters

    def test_parallel_telemetry_matches_serial_but_for_the_pool(self):
        def counters(report):
            return {
                name: value
                for name, value in report.telemetry.counters.items()
                if not name.startswith("parallel.")
            }

        serial = run_campaign(self.KEYS)
        parallel = run_campaign(self.KEYS, workers=2)
        assert counters(parallel) == counters(serial)
        assert parallel.telemetry.spans["campaign.run"].count == 1
        assert serial.telemetry.spans["campaign.run"].count == 1

    def test_parallel_failure_isolation(self):
        good = poisson_2d(8)
        bad = Problem(name="bad_rhs", matrix=good.matrix, b=np.ones(3))
        report = run_campaign([bad, "Wa", good], workers=2)
        assert len(report.entries) == 3
        assert report.entries[0].failed
        assert report.entries[1].converged
        assert report.entries[2].converged

    def test_single_worker_stays_serial(self):
        report = run_campaign(["Wa"], workers=1)
        assert not any(
            name.startswith("parallel.") for name in report.telemetry.counters
        )

    def test_seed_derivation_is_per_position(self, tmp_path):
        path = tmp_path / "grid.mtx"
        write_matrix_market(poisson_2d(8).matrix, path)
        # Same file at two positions → same matrix, different manufactured
        # right-hand sides (seed + position), deterministically.
        once = run_campaign([str(path), str(path)], seed=7)
        again = run_campaign([str(path), str(path)], seed=7)
        assert self.signature(once) == self.signature(again)


class TestTelemetryReport:
    def test_schema_sections_present(self):
        report = run_campaign(["Wa"])
        document = report.telemetry.as_dict()
        assert set(document) == {"schema_version", "spans", "counters"}
        assert document["schema_version"] == 1
        assert document["spans"]["campaign.run"]["count"] == 1
        assert document["spans"]["campaign.solve"]["count"] == 1
        assert document["counters"]["solver_attempts.cg"] >= 1
        assert "campaign.failures" not in document["counters"]

    def test_failures_counted_once_per_failure_entry(self):
        good = poisson_2d(8)
        bad = Problem(name="bad_rhs", matrix=good.matrix, b=np.ones(3))
        report = run_campaign([bad, good, bad])
        assert report.telemetry.counters["campaign.failures"] == 2

    def test_write_telemetry_roundtrip(self, tmp_path):
        import json

        report = run_campaign(["Wa"])
        path = report.telemetry.write_json(tmp_path / "telemetry.json")
        assert json.loads(path.read_text()) == report.telemetry.as_dict()
