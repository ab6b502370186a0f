"""Tests for the chaos runner: profiles, invariants, determinism."""

import pytest

from repro.errors import UnknownNameError
from repro.faults import run_chaos
from repro.faults.plan import FaultPlan
from repro.faults.runner import (
    run_pool_profile,
    run_serve_profile,
    run_solver_profile,
)


class TestPoolProfile:
    def test_invariants_hold_and_faults_land(self):
        outcome = run_pool_profile(FaultPlan(0))
        assert outcome.clean, [f.render() for f in outcome.findings]
        assert outcome.injected["faults.injected.worker_death"] > 0
        assert outcome.observed["worker_lost"], "no WorkerLost item exercised"
        # Restarts and lost items are stated once, as engine counters.
        assert set(outcome.observed) == {
            "items", "item_kills", "item_stalls", "entries", "worker_lost",
            "pools_created", "counters",
        }
        counters = outcome.observed["counters"]
        assert counters["parallel.pool_restarts"] > 0
        assert counters["parallel.workers_lost"] == len(
            outcome.observed["worker_lost"]
        )

    def test_detects_dropped_results(self, monkeypatch):
        # If the engine loses an item, the chaos audit must say so —
        # prove the findings path fires by faking a lossy engine.
        import repro.faults.runner as runner

        real_run_sharded = runner.run_sharded

        def lossy_run_sharded(items, config, **kwargs):
            outcome = real_run_sharded(items, config, **kwargs)
            outcome.results = outcome.results[:-1]  # drop the tail item
            return outcome

        monkeypatch.setattr(runner, "run_sharded", lossy_run_sharded)
        outcome = run_pool_profile(FaultPlan(0))
        assert not outcome.clean
        assert any(f.check == "CHS-POOL-ORDER" for f in outcome.findings)

    def test_detects_missing_failure_counters(self, monkeypatch):
        # Strip the engine's lost-worker counter off the merged
        # telemetry: the parity invariant must catch it.
        import repro.faults.runner as runner

        real_run_sharded = runner.run_sharded

        def amnesiac_run_sharded(items, config, **kwargs):
            outcome = real_run_sharded(items, config, **kwargs)
            outcome.telemetry.counters.pop("parallel.workers_lost", None)
            return outcome

        monkeypatch.setattr(runner, "run_sharded", amnesiac_run_sharded)
        outcome = run_pool_profile(FaultPlan(0))
        assert any(f.check == "CHS-POOL-PARITY" for f in outcome.findings)


class TestServeProfile:
    def test_invariants_hold_under_storm_and_outages(self):
        outcome = run_serve_profile(FaultPlan(0))
        assert outcome.clean, [f.render() for f in outcome.findings]
        assert outcome.injected["faults.injected.deadline_storm"] > 0
        assert outcome.injected["faults.injected.device_outage"] > 0
        # The run must have been genuinely stressed, not a quiet pass.
        requests = outcome.observed["requests"]
        assert requests["unaccounted"] == 0
        assert requests["shed"] + requests["expired"] > 0
        assert outcome.observed["cache"]["lookups"]["evictions"] > 0
        assert outcome.observed["queue"]["preemptions"] >= 1

    def test_preempts_without_a_queue_full_shed(self):
        # Seed 16 sheds nothing for a full queue, so its preemptions
        # come from priority alone.
        outcome = run_serve_profile(FaultPlan(16))
        assert outcome.clean, [f.render() for f in outcome.findings]
        assert outcome.observed["queue"]["shed_full"] == 0
        assert outcome.observed["queue"]["preemptions"] >= 1

    def test_detects_a_run_without_preemption(self, monkeypatch):
        import repro.faults.plan as plan

        # At a queue of 8, seed 0 never preempts.
        monkeypatch.setattr(plan, "SERVE_QUEUE_CAPACITY", 8)
        outcome = run_serve_profile(FaultPlan(0))
        assert outcome.observed["queue"]["preemptions"] == 0
        assert [f.check for f in outcome.findings] == ["CHS-SERVE-PRESSURE"]
        assert "preempted no request" in outcome.findings[0].message

    def test_detects_unaccounted_requests(self, monkeypatch):
        import repro.faults.runner as runner

        real_run_service = runner.run_service

        def leaky_run_service(requests, config):
            report = real_run_service(requests, config)
            report.responses = report.responses[:-1]
            return report

        monkeypatch.setattr(runner, "run_service", leaky_run_service)
        outcome = run_serve_profile(FaultPlan(0))
        assert any(
            f.check in ("CHS-SERVE-ACCOUNT", "CHS-SERVE-IDS")
            for f in outcome.findings
        )


class TestSolverProfile:
    def test_exhaustion_and_recovery_cases_clean(self):
        outcome = run_solver_profile(FaultPlan(0))
        assert outcome.clean, [f.render() for f in outcome.findings]
        cases = outcome.observed["cases"]
        # Case 0 exhausts the whole chain without converging; at least
        # one later case recovers via the Modifier.
        assert cases[0]["converged"] is False
        assert len(cases[0]["attempt_chain"]) >= 2
        assert any(c["converged"] for c in cases[1:])
        for case in cases:
            chain = case["attempt_chain"]
            assert len(set(chain)) == len(chain)  # no repeats, ever
            assert sum(case["solver_attempts"].values()) == len(chain)


class TestRunChaos:
    def test_all_profiles_clean_on_fixed_seeds(self):
        for seed in (0, 1):
            report = run_chaos(seed)
            assert report.clean, [f.render() for f in report.findings]
            assert [p.profile for p in report.profiles] == [
                "pool", "serve", "solver", "cluster", "placement",
            ]

    def test_byte_identical_reports_for_a_seed(self):
        assert run_chaos(2).to_json() == run_chaos(2).to_json()

    def test_profile_subset(self):
        report = run_chaos(0, profiles=("solver",))
        assert [p.profile for p in report.profiles] == ["solver"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(UnknownNameError):
            run_chaos(0, profiles=("pool", "bogus"))

    def test_report_renders_lint_style(self):
        report = run_chaos(0, profiles=("solver",))
        text = report.render_text()
        assert "violation(s)" in text
        assert f"chaos seed {report.chaos_seed}" in text
        document = report.as_dict()
        assert document["clean"] is True
        assert document["findings"] == 0
