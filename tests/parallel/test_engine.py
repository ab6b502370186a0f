"""Tests for the fan-out engine and the campaign's worker helpers."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import telemetry as tm
from repro.campaign import estimate_cost, solve_items, source_label
from repro.config import AcamarConfig
from repro.datasets import poisson_2d
from repro.datasets.problem import Problem
from repro.parallel.engine import (
    ItemResult,
    WorkItem,
    isolated,
    run_sharded,
    shard_by_cost,
)
from repro.telemetry import Telemetry


def make_items(sources, seed=1):
    return [
        WorkItem(
            index=i,
            source=s,
            seed=seed + i,
            cost=estimate_cost(s),
            label=source_label(s),
        )
        for i, s in enumerate(sources)
    ]


def broken_problem(name="broken"):
    """A problem whose solve raises (RHS length disagrees with A)."""
    good = poisson_2d(8)
    return Problem(name=name, matrix=good.matrix, b=np.ones(3))


class TestEstimateCost:
    def test_problem_uses_exact_nnz(self):
        problem = poisson_2d(10)
        assert estimate_cost(problem) == float(problem.nnz)

    def test_key_uses_registry_dimension(self):
        from repro.datasets import dataset_spec

        assert estimate_cost("Wa") == float(dataset_spec("Wa").n)

    def test_mtx_path_uses_file_size(self, tmp_path):
        from repro.sparse.io import write_matrix_market

        path = tmp_path / "grid.mtx"
        write_matrix_market(poisson_2d(8).matrix, path)
        assert estimate_cost(str(path)) == float(path.stat().st_size)

    def test_missing_path_falls_back(self):
        assert estimate_cost("/nonexistent/m.mtx") == 1.0


class TestShardByCost:
    def test_balances_loads(self):
        items = [
            WorkItem(index=i, source=f"s{i}", seed=i, cost=cost, label=f"s{i}")
            for i, cost in enumerate([100, 1, 1, 1, 99, 1, 1, 1])
        ]
        chunks = shard_by_cost(items, 2)
        loads = [sum(it.cost for it in chunk) for chunk in chunks]
        assert len(chunks) == 2
        assert abs(loads[0] - loads[1]) <= 2

    def test_preserves_index_order_within_chunk(self):
        items = make_items(["Wa", "Li", "Fe", "If"])
        for chunk in shard_by_cost(items, 2):
            indices = [it.index for it in chunk]
            assert indices == sorted(indices)

    def test_never_returns_empty_chunks(self):
        items = make_items(["Wa", "Li"])
        chunks = shard_by_cost(items, 8)
        assert len(chunks) == 2
        assert all(chunks)

    def test_all_items_exactly_once(self):
        items = make_items(["Wa", "Li", "Fe", "If", "Qa"])
        chunks = shard_by_cost(items, 3)
        flat = sorted(it.index for chunk in chunks for it in chunk)
        assert flat == [0, 1, 2, 3, 4]


class TestSolveItems:
    def test_solves_and_reports_telemetry(self):
        results = solve_items(make_items(["Wa"]), AcamarConfig())
        assert len(results) == 1
        assert results[0].error is None
        assert results[0].entry.converged
        assert results[0].telemetry.spans["campaign.solve"].count == 1

    def test_fault_isolated_per_item(self):
        items = make_items([broken_problem(), poisson_2d(8)])
        results = solve_items(items, AcamarConfig())
        assert results[0].error is not None
        assert results[0].entry is None
        assert results[0].label == "broken"
        assert results[1].error is None
        assert results[1].entry.converged
        assert results[1].label == "poisson_2d_8x8"


class TestIsolated:
    def test_record_and_telemetry_of_a_clean_run(self):
        def run():
            tm.count("events")
            return "record"

        result = isolated(make_items(["Wa"])[0], run)
        assert (result.index, result.entry, result.error, result.label) == (
            0, "record", None, "Wa",
        )
        assert result.telemetry.counters == {"events": 1}

    def test_exception_becomes_the_items_error_record(self):
        def run():
            tm.count("events")
            raise ValueError("nope")

        outer = Telemetry()
        with outer.activate():
            result = isolated(make_items(["Wa"])[0], run)
        assert (result.entry, result.error, result.label) == (
            None, "ValueError: nope", "Wa",
        )
        # What ran before the fault stays on the item's own collector.
        assert result.telemetry.counters == {"events": 1}
        assert outer.counters == {}


class TestSourceLabel:
    def test_strips_both_mtx_suffixes(self):
        assert source_label("runs/mat.mtx") == "mat"
        assert source_label("runs/mat.mtx.gz") == "mat"

    def test_problem_and_key_labels(self):
        assert source_label(poisson_2d(8)) == "poisson_2d_8x8"
        assert source_label("Wa") == "Wa"


class _FlakyExecutor:
    """Completes chunks inline; breaks on chunks holding poisoned items."""

    def __init__(self, poison, budget):
        self.poison = poison
        self.budget = budget  # dict: remaining breaks

    def submit(self, fn, items, config):
        future = Future()
        hit = [str(it.source) for it in items if str(it.source) in self.poison]
        if hit and self.budget.get("remaining", 0) > 0:
            self.budget["remaining"] -= 1
            future.set_exception(BrokenProcessPool("worker died"))
        else:
            future.set_result(fn(items, config))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestRunSharded:
    @pytest.mark.parametrize("workers, sources", [
        (1, ["Wa", "Li", "Fe"]),
        (4, ["Wa"]),
    ])
    def test_serial_case_never_builds_an_executor(self, workers, sources):
        def factory(n):
            raise AssertionError("the serial path built an executor")

        items = make_items(sources)
        config = AcamarConfig()
        outcome = run_sharded(
            items,
            config,
            workers=workers,
            work_fn=solve_items,
            executor_factory=factory,
        )
        expected = solve_items(items, config)
        assert [r.entry for r in outcome.results] == [
            r.entry for r in expected
        ]
        assert not any(
            name.startswith("parallel.") for name in outcome.telemetry.counters
        )
        merged = Telemetry()
        for result in expected:
            merged.merge(result.telemetry)
        assert outcome.telemetry.counters == merged.counters
        assert {
            name: stats.count
            for name, stats in outcome.telemetry.spans.items()
        } == {name: stats.count for name, stats in merged.spans.items()}

    def test_empty_items(self):
        outcome = run_sharded([], AcamarConfig(), workers=2, work_fn=solve_items)
        assert outcome.results == []

    def test_real_pool_matches_serial(self):
        items = make_items(["Wa", "Li", "Fe"])
        config = AcamarConfig()
        serial = solve_items(items, config)
        outcome = run_sharded(items, config, workers=2, work_fn=solve_items)
        assert [r.index for r in outcome.results] == [0, 1, 2]
        # Each item's Telemetry came back pickled and merged.
        assert outcome.telemetry.spans["campaign.solve"].count == 3
        for ours, ref in zip(outcome.results, serial):
            assert ours.entry.name == ref.entry.name
            assert ours.entry.iterations == ref.entry.iterations
            assert ours.entry.solver_sequence == ref.entry.solver_sequence

    def test_worker_exception_isolated_in_real_pool(self):
        items = make_items([broken_problem(), poisson_2d(8)])
        outcome = run_sharded(items, AcamarConfig(), workers=2, work_fn=solve_items)
        assert outcome.results[0].error is not None
        assert outcome.results[1].entry.converged

    def test_transient_worker_loss_is_retried(self):
        items = make_items(["Wa", "Li", "Fe"])
        budget = {"remaining": 1}  # break once, then recover
        factory_calls = []

        def factory(n):
            factory_calls.append(n)
            return _FlakyExecutor({"Li"}, budget)

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            executor_factory=factory,
        )
        assert outcome.telemetry.counters["parallel.pool_restarts"] == 1
        assert len(factory_calls) == 2
        entries = {r.label: r for r in outcome.results}
        assert entries["Li"].error is None
        assert all(r.entry is not None for r in outcome.results)

    def test_persistent_worker_loss_becomes_failure_record(self):
        items = make_items(["Wa", "Li", "Fe"])
        budget = {"remaining": 100}  # Li always kills its worker

        def factory(n):
            return _FlakyExecutor({"Li"}, budget)

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            executor_factory=factory,
        )
        assert len(outcome.results) == 3
        by_index = {r.index: r for r in outcome.results}
        assert by_index[1].error is not None
        assert "WorkerLost" in by_index[1].error
        assert outcome.telemetry.counters["parallel.workers_lost"] == 1
        # The innocent chunk-mates still complete.
        assert by_index[0].entry is not None
        assert by_index[2].entry is not None

    def test_unstartable_pool_falls_back_in_process(self):
        def factory(n):
            raise OSError("no processes available")

        items = make_items(["Wa", "Li"])
        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=4,
            work_fn=solve_items,
            executor_factory=factory,
        )
        assert outcome.telemetry.counters["parallel.in_process_items"] == 2
        assert all(r.entry is not None for r in outcome.results)

    def test_chunk_size_controls_chunk_count(self):
        items = make_items(["Wa", "Li", "Fe", "If"])
        chunks = []

        class Recorder:
            def submit(self, fn, chunk, config):
                chunks.append(chunk)
                future = Future()
                future.set_result(fn(chunk, config))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        def factory(n):
            return Recorder()

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            chunk_size=2,
            executor_factory=factory,
        )
        assert outcome.telemetry.counters["parallel.chunks"] == 2
        assert len(chunks) == 2
        assert all(len(chunk) == 2 for chunk in chunks)

    def test_deterministic_across_runs(self):
        items = make_items(["Wa", "Li"])
        first = run_sharded(items, AcamarConfig(), workers=2, work_fn=solve_items)
        second = run_sharded(items, AcamarConfig(), workers=2, work_fn=solve_items)
        for a, b in zip(first.results, second.results):
            assert a.entry.iterations == b.entry.iterations
            assert a.entry.solver_sequence == b.entry.solver_sequence


class TestAllErrorReassembly:
    def test_every_item_failing_still_reassembles_in_order(self):
        items = make_items(
            [broken_problem("b0"), broken_problem("b1"), broken_problem("b2")]
        )
        outcome = run_sharded(items, AcamarConfig(), workers=2, work_fn=solve_items)
        assert [r.index for r in outcome.results] == [0, 1, 2]
        assert all(r.entry is None for r in outcome.results)
        assert all(r.error is not None for r in outcome.results)
        assert [r.label for r in outcome.results] == ["b0", "b1", "b2"]
        assert "parallel.workers_lost" not in outcome.telemetry.counters


def echo_items(chunk, config):
    """Module-level work_fn stand-in: pool workers must be able to pickle
    it, exactly like the real ``solve_items``/``profile_items``."""
    return [
        ItemResult(
            index=it.index,
            entry=f"echo:{it.source}",
            error=None,
            label=str(it.source),
            telemetry=Telemetry(),
        )
        for it in chunk
    ]


class TestCustomWorkFn:
    def test_work_fn_replaces_solve_items(self):
        items = make_items(["Wa", "Li", "Fe"])
        outcome = run_sharded(
            items, AcamarConfig(), workers=2, work_fn=echo_items
        )
        assert [r.entry for r in outcome.results] == [
            "echo:Wa", "echo:Li", "echo:Fe",
        ]

    def test_work_fn_used_on_in_process_fallback(self):
        def factory(n):
            raise OSError("no processes available")

        outcome = run_sharded(
            make_items(["Wa", "Li"]),
            AcamarConfig(),
            workers=4,
            executor_factory=factory,
            work_fn=echo_items,
        )
        assert outcome.telemetry.counters["parallel.in_process_items"] == 2
        assert all(r.entry.startswith("echo:") for r in outcome.results)


class TestWorkerLostAccounting:
    """The engine counts its own events; a lost record carries none."""

    def test_lost_worker_counters_match_fault_path(self):
        items = make_items(["Wa", "Li", "Fe"])
        budget = {"remaining": 100}  # Li always kills its worker

        def factory(n):
            return _FlakyExecutor({"Li"}, budget)

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            executor_factory=factory,
        )
        lost = [r for r in outcome.results if r.error is not None]
        assert len(lost) == 1
        # The lost record's collector is empty: nothing ran for it.
        assert lost[0].telemetry.as_dict() == Telemetry().as_dict()
        # The engine counts the loss once, under its own name, and names
        # no counter of the work function's layer.
        merged = outcome.telemetry.counters
        assert merged["parallel.workers_lost"] == len(lost)
        assert not any(name.startswith("campaign.") for name in merged)

    def test_mixed_fault_paths_agree_in_aggregate(self, monkeypatch):
        # run_campaign counts campaign.failures once per failure record,
        # an in-worker fault and a lost worker alike.
        import functools

        import repro.campaign as campaign

        budget = {"remaining": 100}  # Li kills workers; index 0 raises
        monkeypatch.setattr(campaign, "run_sharded", functools.partial(
            run_sharded,
            executor_factory=lambda n: _FlakyExecutor({"Li"}, budget),
        ))
        report = campaign.run_campaign(
            [broken_problem(), "Wa", "Li"], workers=2
        )
        counters = report.telemetry.counters
        assert [e.name for e in report.failures] == ["broken", "Li"]
        assert counters["campaign.failures"] == len(report.failures)
        assert counters["parallel.workers_lost"] == 1


class TestRestartExhaustionMidCampaign:
    """Exhausting max_pool_restarts must still return a full outcome."""

    def test_exhausted_restarts_surface_worker_lost_in_order(self):
        items = make_items(["Wa", "Li", "Fe", "If"])
        budget = {"remaining": 100}

        def factory(n):
            return _FlakyExecutor({"Li"}, budget)

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            chunk_size=2,
            max_pool_restarts=0,
            executor_factory=factory,
        )
        # Complete and ordered: every item has exactly one result.
        assert [r.index for r in outcome.results] == [0, 1, 2, 3]
        suspects = [
            r.index for r in outcome.results
            if r.error is not None and "WorkerLost" in r.error
        ]
        # Li's chunk-mates are crash suspects; they must be reported as
        # WorkerLost, never retried inside the parent process.
        assert 1 in suspects
        counters = outcome.telemetry.counters
        assert "parallel.in_process_items" not in counters
        assert counters["parallel.workers_lost"] == len(suspects)
        # Chunks that survived the broken pool keep their real entries.
        completed = [r for r in outcome.results if r.entry is not None]
        assert len(completed) == len(items) - len(suspects)
        for result in completed:
            assert result.error is None

    def test_every_chunk_crashing_never_falls_back_in_process(self):
        items = make_items(["Wa", "Li", "Fe"])
        budget = {"remaining": 100}

        def factory(n):
            return _FlakyExecutor({"Wa", "Li", "Fe"}, budget)

        outcome = run_sharded(
            items,
            AcamarConfig(),
            workers=2,
            work_fn=solve_items,
            max_pool_restarts=1,
            executor_factory=factory,
        )
        assert [r.index for r in outcome.results] == [0, 1, 2]
        assert all(
            r.error is not None and "WorkerLost" in r.error
            for r in outcome.results
        )
        counters = outcome.telemetry.counters
        assert "parallel.in_process_items" not in counters
        assert counters["parallel.workers_lost"] == 3
        assert counters["parallel.pool_restarts"] == 2
