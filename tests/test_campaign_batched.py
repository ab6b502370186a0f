"""Campaign-level parity harness for batched campaigns.

The acceptance bar for batching is *byte-identity of the campaign CSV*:
turning ``batch=True`` on or changing the worker count may change
wall-clock time and telemetry, but never a single byte of the scientific
output.  These tests run a fingerprint-sharing population (duplicated
dataset keys resolve to identical matrices) through every combination
and diff the CSVs, and pin what batching shares: one host analysis per
group of identical operators.
"""

import numpy as np
import pytest

from repro.campaign import run_campaign, solve_group
from repro.config import AcamarConfig
from repro.core import FineGrainedReconfigurationUnit, MatrixStructureUnit
from repro.datasets import poisson_2d
from repro.parallel import WorkItem
from repro.telemetry import Telemetry

# Duplicated keys make fingerprint groups; distinct keys stay singletons.
POPULATION = ["2C", "Of", "2C", "Wi", "2C", "Of"]


def campaign_csv(tmp_path, name, **kwargs) -> bytes:
    report = run_campaign(POPULATION, **kwargs)
    path = report.to_csv(tmp_path / name)
    return path.read_bytes()


class TestCsvByteIdentity:
    def test_batch_on_off_identical(self, tmp_path):
        off = campaign_csv(tmp_path, "off.csv", batch=False)
        on = campaign_csv(tmp_path, "on.csv", batch=True)
        assert on == off

    def test_batch_identical_across_worker_counts(self, tmp_path):
        serial = campaign_csv(tmp_path, "serial.csv", batch=True)
        sharded = campaign_csv(tmp_path, "sharded.csv", batch=True, workers=2)
        assert sharded == serial


@pytest.fixture
def analysis_calls(monkeypatch):
    """Count host-analysis calls: solver selection and unroll planning."""
    calls = {"select_solver": 0, "plan": 0}
    for owner, name in (
        (MatrixStructureUnit, "select_solver"),
        (FineGrainedReconfigurationUnit, "plan"),
    ):
        def counted(self, *args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def merged_counters(results) -> dict[str, int]:
    merged: dict[str, int] = {}
    for r in results:
        for name, value in r.telemetry.get("counters", {}).items():
            merged[name] = merged.get(name, 0) + value
    return merged


class TestSolveGroup:
    def _items(self, problems):
        return [
            WorkItem(index=i, source=p, seed=1 + i, cost=float(p.matrix.nnz))
            for i, p in enumerate(problems)
        ]

    def test_shared_group_entries_match_individual(self):
        config = AcamarConfig()
        problems = [poisson_2d(12), poisson_2d(12), poisson_2d(12)]
        grouped = solve_group(self._items(problems), config)
        solo = [
            solve_group(self._items([p]), config)[0] for p in problems
        ]
        # solve_group reindexes per call; compare the scientific payload.
        for g, s in zip(grouped, solo):
            assert g.error is None and s.error is None
            assert g.entry == s.entry

    def test_identical_operators_share_one_analysis(self, analysis_calls):
        problems = [poisson_2d(12), poisson_2d(12), poisson_2d(12)]
        results = solve_group(self._items(problems), AcamarConfig())
        assert all(r.error is None for r in results)
        assert analysis_calls == {"select_solver": 1, "plan": 1}
        # Every member still runs its own first attempt (CG converges
        # on it, so there is exactly one attempt per member).
        assert [r.entry.solver_sequence for r in results] == [("cg",)] * 3
        counters = merged_counters(results)
        assert counters["solver_attempts.cg"] == 3
        assert counters["batch.groups"] == 1
        assert counters["batch.items"] == 3
        assert "batch.fallback_sequential" not in counters

    def test_group_counters_recorded(self):
        config = AcamarConfig()
        problems = [poisson_2d(12), poisson_2d(12)]
        collector = Telemetry()
        with collector.activate():
            results = solve_group(self._items(problems), config)
        assert all(r.error is None for r in results)
        merged = collector.as_dict()["counters"]
        for r in results:
            for name, value in r.telemetry.get("counters", {}).items():
                merged[name] = merged.get(name, 0) + value
        assert merged.get("batch.groups", 0) >= 1
        assert merged.get("batch.items", 0) >= 2

    def test_value_mismatch_same_pattern_not_shared(self, analysis_calls):
        """Same fingerprint but different values must not share analysis
        (the symmetry verdict reads values) — and must still be right."""
        config = AcamarConfig()
        a = poisson_2d(12)
        scaled = a.matrix.with_data(
            (a.matrix.data * np.float32(2.0)).astype(a.matrix.data.dtype)
        )
        b = type(a)(
            name="poisson-scaled",
            matrix=scaled,
            b=a.b.copy(),
        )
        results = solve_group(self._items([a, b]), config)
        assert all(r.error is None for r in results)
        assert analysis_calls == {"select_solver": 2, "plan": 2}
        solo = [
            solve_group(self._items([p]), config)[0] for p in [a, b]
        ]
        for g, s in zip(results, solo):
            assert g.entry == s.entry


class TestReportEquivalence:
    def test_entries_identical_not_just_csv(self):
        """Belt and braces: compare the in-memory entries field by field."""
        off = run_campaign(POPULATION, batch=False)
        on = run_campaign(POPULATION, batch=True)
        assert len(on.entries) == len(off.entries)
        for a, b in zip(on.entries, off.entries):
            assert a == b
