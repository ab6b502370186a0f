"""One cluster simulation per distinct deployment and one solve per
source and numerics key, exact per point.

``evaluate_items`` runs the simulator once per deployment key and
prices every point of that deployment from the shared run, and its
profiles reuse a stored ``Acamar.solve`` wherever the attempts provably
repeat.  These tests pin the two halves of that contract:

- **Exactness.**  Every sweep record equals, byte for byte as sorted
  JSON, the record :func:`evaluate_point` builds for that point alone,
  with a cold profile memo, its own solves, its own trace and its own
  simulation.  The spaces are chosen so that every part of the key
  binds: unroll budgets and solver mixes that change profiles, a cache
  capacity below the number of structures, queues that shed, GPU
  tenants and CPU assist; each is swept under all three solver mixes.
- **Sharing.**  The number of simulations is the number of distinct
  deployments each space predicts, and the number of real solves the
  number the reuse rule predicts, so a key that stops matching fails
  here and not only in the benchmark.
"""

import json
from dataclasses import replace

import pytest

import repro.dse.evaluator as evaluator
from repro.config import AcamarConfig
from repro.core import Acamar
from repro.dse import (
    SOLVER_MIXES,
    DesignSpace,
    TrafficSpec,
    cross_shapes,
    demo_space,
    evaluate_point,
    run_dse,
    run_sweep,
)
from repro.telemetry import Telemetry

RUSH = TrafficSpec(name="rush", mix="bursty", rate_rps=300.0, duration_s=2.0)
STEADY = TrafficSpec(
    name="steady", mix="uniform", rate_rps=150.0, duration_s=2.0
)

BASE_AXES = {
    "slots_per_fleet": (2,),
    "max_unroll": (16,),
    "solver_mix": ("paper-default", "cg-first"),
    "cache_capacity": (8,),
    "queue_capacity": (512,),
    "fleet_bounds": ((1, 2),),
}


def space_with(sources, traffic=(RUSH,), **axes):
    return DesignSpace(
        shapes=cross_shapes({**BASE_AXES, **axes}),
        traffic=traffic,
        sources=sources,
    )


# Five structures: cache capacity 2 binds, 8 and 16 both clamp to 5.
# Queue capacity 4 sheds.  Deployments: 2 regimes x 2 queues x 2 cache
# classes; the two solver mixes profile alike.
BINDING = space_with(
    ("2C", "Wi", "Li", "Fe", "Wa"),
    traffic=(RUSH, STEADY),
    cache_capacity=(2, 8, 16),
    queue_capacity=(4, 512),
)

# GPU tenants and CPU assist change the run; solver mix and cache
# capacity (both above the four structures) do not: 2 x 2 deployments.
HETERO = space_with(
    ("2C", "Wi", "Li", "Fe"),
    cache_capacity=(8, 64),
    gpu_tenants=(0, 1),
    cpu_assist=(False, True),
)

# With 40 iterations Bc exhausts every solver.  paper-default and
# cg-first both fall back cg -> bicgstab -> jacobi and share a run;
# jacobi-first falls back cg -> jacobi -> bicgstab, a different profile.
# Deployments: 2 unroll budgets x 2 profile classes.
EXHAUST_CONFIG = AcamarConfig(max_iterations=40)
EXHAUST = space_with(
    ("Bc", "2C", "Wi"),
    max_unroll=(16, 64),
    solver_mix=("paper-default", "cg-first", "jacobi-first"),
)

CASES = {
    # space, seed, base config, simulations the deployments predict
    "demo": (demo_space(), 0, None, 16),
    "binding": (BINDING, 0, None, 8),
    "hetero": (HETERO, 0, None, 4),
    "exhaust": (EXHAUST, 0, EXHAUST_CONFIG, 4),
}


def canonical(record):
    return json.dumps(record, sort_keys=True)


def with_all_mixes(space):
    """``space`` with every shape deployed under each solver mix."""
    shapes = []
    for shape in space.shapes:
        for mix in SOLVER_MIXES:
            variant = replace(shape, solver_mix=mix)
            if variant not in shapes:
                shapes.append(variant)
    return replace(space, shapes=tuple(shapes))


def count_simulations(monkeypatch, space, seed, base_config=None):
    """Run a sweep; return how many times it called ``run_cluster``."""
    calls = []
    original = evaluator.run_cluster

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluator, "run_cluster", counting)
    collector = Telemetry()
    results = run_sweep(
        space, seed=seed, base_config=base_config, collector=collector
    )
    assert all(result.entry is not None for result in results)
    assert collector.counters["dse.simulations"] == len(calls)
    return len(calls)


def count_profile_solves(monkeypatch, space, seed, base_config=None):
    """Run a sweep with a cold profile memo; return its real solves."""
    calls = []
    original = Acamar.solve

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Acamar, "solve", counting)
    monkeypatch.setattr(evaluator, "_PROFILE_MEMO", {})
    collector = Telemetry()
    run_sweep(space, seed=seed, base_config=base_config, collector=collector)
    assert collector.counters["dse.profile_solves"] == len(calls)
    return len(calls)


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_records_equal_points_simulated_alone(monkeypatch, case):
    space, seed, base_config, _ = CASES[case]
    space = with_all_mixes(space)
    monkeypatch.setattr(evaluator, "_PROFILE_MEMO", {})
    shared = run_sweep(space, seed=seed, base_config=base_config)
    alone = []
    for shape, traffic in space.points():
        evaluator._PROFILE_MEMO.clear()
        alone.append(
            evaluate_point(
                shape, traffic, space.sources, seed=seed,
                base_config=base_config,
            )
        )
    assert [canonical(r.entry) for r in shared] == [
        canonical(record) for record in alone
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_simulation_per_distinct_deployment(monkeypatch, case):
    space, seed, base_config, expected = CASES[case]
    assert count_simulations(monkeypatch, space, seed, base_config) == expected


def test_demo_sweep_at_seed_one_runs_sixteen_simulations(monkeypatch):
    assert count_simulations(monkeypatch, demo_space(), seed=1) == 16


@pytest.mark.parametrize("seed", [0, 1])
def test_demo_sweep_solves_each_source_once(monkeypatch, seed):
    """Four sources, one numerics key, and no source reaches the Solver
    Modifier, so both unroll budgets and both mixes share each solve."""
    assert count_profile_solves(monkeypatch, demo_space(), seed) == 4


def test_sweep_telemetry_carries_the_profiling(monkeypatch):
    """Profiling records into the sweep's collector: each demo source is
    resolved once, and each real solve runs the Matrix Structure unit
    once and stores one entry in the sweep memo."""
    monkeypatch.setattr(evaluator, "_PROFILE_MEMO", {})
    collector = Telemetry()
    run_dse(demo_space(), seed=0, collector=collector)
    counters = collector.counters
    assert counters["dse.profile_solves"] == 4
    assert collector.spans["serve.profile.resolve"].count == 4
    assert collector.spans["matrix_structure.select"].count == 4
    assert sum(
        value
        for name, value in counters.items()
        if name.startswith("solver_attempts.")
    ) == 4


def test_failed_first_attempts_solve_once_per_fallback_order(monkeypatch):
    """Bc exhausts every solver under ``EXHAUST_CONFIG``, so its solves
    read the fallback order: one per mix (3).  2C and Wi converge on
    their first attempt and are solved once each."""
    solves = count_profile_solves(monkeypatch, EXHAUST, 0, EXHAUST_CONFIG)
    assert solves == 3 + 1 + 1


def test_spaces_bind_every_part_of_the_key():
    """The axes the key must tell apart move a point's record when the
    point is simulated alone, or the differential test could not see a
    key that merged them."""

    def metrics(space, base_config=None):
        return {
            f"{shape.shape_id}@{traffic.name}": evaluate_point(
                shape, traffic, space.sources, seed=0,
                base_config=base_config,
            )["metrics"]
            for shape, traffic in space.points()
        }

    binding = metrics(BINDING)
    small = binding["s2-u16-paper-default-c2-q512-f1:2@rush"]
    large = binding["s2-u16-paper-default-c8-q512-f1:2@rush"]
    assert small["device_seconds"] != large["device_seconds"]
    assert binding["s2-u16-paper-default-c8-q4-f1:2@rush"]["shed_rate"] > 0

    exhaust = metrics(EXHAUST, EXHAUST_CONFIG)
    paper = exhaust["s2-u16-paper-default-c8-q512-f1:2@rush"]
    assert exhaust["s2-u16-cg-first-c8-q512-f1:2@rush"] == paper
    jacobi = exhaust["s2-u16-jacobi-first-c8-q512-f1:2@rush"]
    assert jacobi["device_seconds"] != paper["device_seconds"]


def _containers(value, found):
    if isinstance(value, (dict, list)):
        found.append(id(value))
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            _containers(item, found)
    return found


def test_records_share_no_mutable_object():
    records = [r.entry for r in run_sweep(HETERO, seed=0)]
    ids = [i for record in records for i in _containers(record, [])]
    assert len(ids) == len(set(ids))
    assert any("placement_by_class" in r["metrics"] for r in records)


def test_runs_do_not_outlive_the_sweep(monkeypatch):
    """The memo is per call: a second sweep simulates again."""
    space = space_with(("2C", "Wi"))
    first = count_simulations(monkeypatch, space, seed=0)
    second = count_simulations(monkeypatch, space, seed=0)
    assert first == second == 1


def test_solves_do_not_outlive_the_sweep(monkeypatch):
    """A second sweep with a cold profile memo solves again."""
    space = space_with(("2C", "Wi"), max_unroll=(16, 64))
    first = count_profile_solves(monkeypatch, space, seed=0)
    second = count_profile_solves(monkeypatch, space, seed=0)
    assert first == second == 2
