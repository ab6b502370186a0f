"""One cluster simulation per distinct deployment, exact per point.

``evaluate_items`` runs the simulator once per deployment key and
prices every point of that deployment from the shared run.  These tests
pin the two halves of that contract:

- **Exactness.**  Every sweep record equals, byte for byte as sorted
  JSON, the record :func:`evaluate_point` builds for that point alone
  with its own trace and its own simulation.  The spaces are chosen so
  that every part of the key binds: unroll budgets and solver mixes
  that change profiles, a cache capacity below the number of
  structures, queues that shed, GPU tenants and CPU assist.
- **Sharing.**  The number of simulations is the number of distinct
  deployments each space predicts, so a key that stops matching fails
  here and not only in the benchmark.
"""

import json

import pytest

import repro.dse.evaluator as evaluator
from repro.config import AcamarConfig
from repro.dse import (
    DesignSpace,
    TrafficSpec,
    cross_shapes,
    demo_space,
    evaluate_point,
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_records_equal_points_simulated_alone(case):
    space, seed, base_config, _ = CASES[case]
    shared = run_sweep(space, seed=seed, base_config=base_config)
    alone = [
        evaluate_point(
            shape, traffic, space.sources, seed=seed,
            base_config=base_config,
        )
        for shape, traffic in space.points()
    ]
    assert [canonical(r.entry) for r in shared] == [
        canonical(record) for record in alone
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_simulation_per_distinct_deployment(monkeypatch, case):
    space, seed, base_config, expected = CASES[case]
    assert count_simulations(monkeypatch, space, seed, base_config) == expected


def test_demo_sweep_at_seed_one_runs_sixteen_simulations(monkeypatch):
    assert count_simulations(monkeypatch, demo_space(), seed=1) == 16


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
