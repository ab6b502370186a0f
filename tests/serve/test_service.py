"""End-to-end tests of the serving simulator and its report."""

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.fpga.multitenancy import FleetSpec
from repro.serve.api import Outcome, Priority, SolveRequest
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.service import (
    PROFILE_SEED,
    ServiceConfig,
    build_profiles,
    run_loadtest,
    run_service,
)

SOURCES = ("Wa", "Li")


def small_spec(**overrides):
    base = dict(seed=0, duration_s=1.0, rate_rps=60.0, sources=SOURCES)
    base.update(overrides)
    return LoadSpec(**base)


def small_config(**overrides):
    base = dict(fleet=FleetSpec(slots_per_device=2))
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def baseline_report():
    return run_loadtest(small_spec(), small_config())


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(workers=0)

    @pytest.mark.parametrize("field, value", [
        ("max_batch", 0),
        ("cache_capacity", 0),
        ("batch_window_ms", -1.0),
        ("batch_window_ms", math.nan),
        ("batch_window_ms", math.inf),
    ])
    def test_field_checked_at_construction(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("queue_capacity", True),
        ("queue_capacity", 2.0),
        ("queue_capacity", 0),
        ("max_batch", 2.5),
        ("max_batch", False),
        ("cache_capacity", 1.5),
        ("workers", 1.5),
        ("workers", 0),
    ])
    def test_integer_knobs_take_only_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            ServiceConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = ServiceConfig(
            max_batch=np.int64(4), queue_capacity=np.int32(3)
        )
        assert config.max_batch == 4
        assert config.queue_capacity == 3

    def test_workers_excluded_from_report_dict(self):
        assert "workers" not in ServiceConfig(workers=4).as_dict()


class TestBuildProfiles:
    def test_profiles_unique_sources_once(self):
        profiles = build_profiles(
            ["Wa", "Li", "Wa"], acamar_config(), workers=1
        )
        assert set(profiles) == {"Wa", "Li"}
        assert profiles["Wa"].converged

    def test_failure_maps_to_error_string(self):
        profiles = build_profiles(["Wa", "bogus-key"], acamar_config())
        assert profiles["Wa"].converged
        assert isinstance(profiles["bogus-key"], str)
        assert "bogus-key" in profiles["bogus-key"]

    def test_shared_solves_price_each_config_as_its_own_solves(self):
        """Configs differing in a plan field or a fallback order reuse
        one solve per source (both converge first time) and price it
        under their own plan."""
        configs = [
            acamar_config().with_overrides(max_unroll=4),
            acamar_config().with_overrides(
                solver_fallback_order=("jacobi", "cg", "bicgstab")
            ),
        ]
        solves = {}
        for config in configs:
            shared = build_profiles(SOURCES, config, solves=solves)
            assert shared == build_profiles(SOURCES, config)
        assert sorted(solves) == [(s, PROFILE_SEED) for s in sorted(SOURCES)]
        for (source, _), (problem, stored) in solves.items():
            assert problem.name == shared[source].label
            assert len(stored) == 1


def acamar_config():
    from repro.config import AcamarConfig

    return AcamarConfig()


class TestAccountingInvariant:
    def test_every_request_has_exactly_one_response(self, baseline_report):
        report = baseline_report
        assert report.unaccounted == 0
        ids = sorted(r.request_id for r in report.responses)
        assert ids == sorted(r.request_id for r in report.requests)

    def test_invariant_holds_under_overload(self):
        # Tiny queue + one slot + high rate: shed and preemption paths fire.
        report = run_loadtest(
            small_spec(rate_rps=600.0, mix="bursty"),
            small_config(
                queue_capacity=4,
                fleet=FleetSpec(slots_per_device=1),
            ),
        )
        assert report.unaccounted == 0
        assert report.shed_count > 0
        doc = report.as_dict(include_responses=False)
        assert doc["requests"]["unaccounted"] == 0
        assert doc["queue"]["max_depth"] <= 4

    def test_shed_responses_carry_detail(self):
        report = run_loadtest(
            small_spec(rate_rps=600.0, mix="bursty"),
            small_config(
                queue_capacity=4,
                fleet=FleetSpec(slots_per_device=1),
            ),
        )
        for response in report.responses:
            if response.outcome is Outcome.SHED:
                assert response.detail


class TestDeterminism:
    def test_same_spec_byte_identical_report(self, baseline_report):
        again = run_loadtest(small_spec(), small_config())
        assert again.to_json() == baseline_report.to_json()

    def test_replayed_log_matches_live_run(self, baseline_report):
        requests = generate_requests(small_spec())
        replay = run_service(requests, small_config())
        assert [r.as_dict() for r in replay.responses] == [
            r.as_dict() for r in baseline_report.responses
        ]

    def test_worker_count_does_not_change_report(self, baseline_report):
        multi = run_loadtest(small_spec(), small_config(workers=2))
        assert multi.to_json() == baseline_report.to_json()


class TestCacheEffect:
    def test_cache_beats_no_cache_on_repeat_traffic(self, baseline_report):
        no_cache = run_loadtest(
            small_spec(), small_config(cache_enabled=False)
        )
        warm = baseline_report.as_dict(include_responses=False)
        cold = no_cache.as_dict(include_responses=False)
        assert warm["cache"]["enabled"] and not cold["cache"]["enabled"]
        assert cold["cache"]["hit_rate"] == 0.0
        assert warm["cache"]["hit_rate"] > 0.5
        assert (
            warm["latency_ms"]["overall"]["p50"]
            < cold["latency_ms"]["overall"]["p50"]
        )
        # Residency tracking needs the cache: without it every batch
        # placement reloads the solver region.
        assert cold["batches"]["config_loads"] == cold["batches"]["count"]
        assert warm["batches"]["config_loads"] < warm["batches"]["count"]


    def test_cache_counters_count_every_member(self, baseline_report):
        done = baseline_report.completed
        hits = sum(r.cache_hit for r in done)
        assert hits and hits < len(done)
        counters = baseline_report.telemetry.counters
        assert counters["serve.cache_hits"] == hits
        assert counters["serve.cache_misses"] == len(done) - hits

    def test_empty_log_reports_zero_lookups(self):
        # An enabled cache that is still empty must report its lookups,
        # not null: emptiness is not the absence of a cache.
        cache = run_service([], small_config()).as_dict()["cache"]
        assert cache["enabled"]
        assert cache["entries"] == 0
        assert cache["lookups"] == {
            "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0,
        }


class TestFailedSources:
    def test_unprofileable_source_yields_failed_responses(self):
        requests = [
            SolveRequest(request_id=0, source="Wa", arrival_s=0.0),
            SolveRequest(request_id=1, source="bogus-key", arrival_s=0.001),
        ]
        report = run_service(requests, small_config())
        by_id = {r.request_id: r for r in report.responses}
        assert by_id[0].outcome is Outcome.COMPLETED
        assert by_id[1].outcome is Outcome.FAILED
        assert report.unaccounted == 0


class TestRequestLogChecks:
    """``run_service`` refuses, before profiling, a log its tick loop
    cannot serve: a NaN arrival never ends the loop."""

    @pytest.mark.parametrize("arrival, deadline", [
        (math.nan, None),
        (math.inf, None),
        (0.001, math.nan),
        (0.001, math.inf),
    ])
    def test_non_finite_time_rejected(self, arrival, deadline):
        requests = [
            SolveRequest(request_id=0, source="Wa", arrival_s=0.0),
            SolveRequest(request_id=1, source="Wa", arrival_s=arrival,
                         deadline_s=deadline),
        ]
        with pytest.raises(ValidationError, match="request 1: .* finite"):
            run_service(requests, small_config())

    def test_duplicate_id_rejected(self):
        requests = [
            SolveRequest(request_id=3, source="Wa", arrival_s=0.0),
            SolveRequest(request_id=3, source="Li", arrival_s=0.001),
        ]
        with pytest.raises(ValidationError, match="duplicate request_id 3"):
            run_service(requests, small_config())


class TestDeadlines:
    def test_hopeless_deadline_is_shed_not_queued(self):
        requests = [
            SolveRequest(
                request_id=0,
                source="Wa",
                arrival_s=0.0,
                priority=Priority.INTERACTIVE,
                deadline_s=0.0,
            ),
        ]
        report = run_service(requests, small_config())
        assert report.responses[0].outcome is Outcome.SHED


class TestReport:
    def test_summary_lines_render(self, baseline_report):
        lines = baseline_report.summary_lines()
        assert any("requests generated" in line for line in lines)
        assert any("cache hit rate" in line for line in lines)

    def test_json_report_shape(self, baseline_report, tmp_path):
        import json

        path = baseline_report.write_json(tmp_path / "report.json")
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert document["requests"]["generated"] == len(
            baseline_report.requests
        )
        assert set(document["latency_ms"]["by_priority"]) == {
            "interactive", "batch", "best_effort",
        }
        assert len(document["responses"]) == len(baseline_report.responses)
        assert document["fleet"]["total_slots"] == 2

    def test_response_log_round_trip(self, baseline_report, tmp_path):
        import json

        path = baseline_report.write_response_log(tmp_path / "resp.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(baseline_report.responses)
        first = json.loads(lines[0])
        assert first["request_id"] == baseline_report.responses[0].request_id

    def test_telemetry_size_grows_with_names_not_traffic(self):
        def zeroed(node):
            if isinstance(node, dict):
                return {key: zeroed(value) for key, value in node.items()}
            if isinstance(node, list):
                return [zeroed(value) for value in node]
            return 0

        short, long = (
            run_loadtest(small_spec(duration_s=seconds), small_config())
            .telemetry.as_dict()
            for seconds in (1.0, 5.0)
        )
        for document in (short, long):
            assert set(document) == {"schema_version", "spans", "counters"}
        # With every number zeroed and only the names both runs recorded,
        # the two documents are the same: five times the requests add no
        # bytes beyond new names and wider numbers.
        for section in ("spans", "counters"):
            shared = short[section].keys() & long[section].keys()
            for document in (short, long):
                document[section] = {
                    name: value
                    for name, value in document[section].items()
                    if name in shared
                }
        assert json.dumps(zeroed(short)) == json.dumps(zeroed(long))
        assert long["counters"]["serve.requests"] > (
            3 * short["counters"]["serve.requests"]
        )


class TestIntegerPriorities:
    """A log built with plain ints schedules and reports as one built
    with ``Priority`` members (before coercion the ints never counted as
    interactive: 5 batches and no interactive latencies here)."""

    @staticmethod
    def alternating(interactive, best_effort):
        return [
            SolveRequest(
                request_id=i,
                source="Wa",
                arrival_s=i * 1e-4,
                priority=interactive if i % 2 == 0 else best_effort,
            )
            for i in range(40)
        ]

    def test_int_and_member_logs_give_identical_reports(self):
        config = ServiceConfig(batch_window_ms=5.0)
        members = run_service(
            self.alternating(Priority.INTERACTIVE, Priority.BEST_EFFORT),
            config,
        )
        ints = run_service(self.alternating(0, 2), config)
        assert ints.to_json() == members.to_json()
        doc = members.as_dict(include_responses=False)
        assert doc["batches"]["count"] == 7
        assert doc["latency_ms"]["by_priority"]["interactive"]["count"] == 20
