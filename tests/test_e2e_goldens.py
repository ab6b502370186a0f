"""Exact goldens for the modeled totals of the four e2ebench workloads.

``e2ebench/workloads.py`` reports ``device_s`` for ``solve-65k`` as the
sum of the three solves' modeled ``total_seconds``, for
``table2-campaign`` as the campaign's compute and reconfiguration time
plus one solver swap per fallback, for ``loadtest`` as the single-fleet
run's ``fleet.device_seconds`` and for ``dse-sweep`` as the sum of every
design point's ``device_seconds``.  All four are modeled, so at seed 1
every figure below is exact; a change that moves one changes the
benchmark's modeled output and must say why.
"""

from repro import run_campaign
from repro.core.accelerator import Acamar
from repro.datasets import (
    convection_diffusion_2d,
    dataset_keys,
    load_problem,
    manufacture_problem,
    poisson_2d,
    sdd_matrix,
)
from repro.dse import demo_space, run_dse
from repro.fpga import PerformanceModel
from repro.serve import LoadSpec, ServiceConfig, run_loadtest


def test_solve_65k_seed_1_totals():
    sdd = sdd_matrix(65536, 8.0, seed=1, symmetric=False, dominance=1.05)
    problems = [
        poisson_2d(256, seed=1),
        convection_diffusion_2d(256, seed=1),
        manufacture_problem("sdd_65536", sdd, seed=1),
    ]
    acamar = Acamar()
    model = PerformanceModel()
    results = [acamar.solve(p.matrix, p.b) for p in problems]
    assert [r.selection.solver for r in results] == ["cg", "bicgstab", "jacobi"]
    device_s = sum(
        model.acamar_latency(p.matrix, r).total_seconds
        for p, r in zip(problems, results)
    )
    assert round(device_s, 9) == 1.475521653
    iterations = sum(a.result.iterations for r in results for a in r.attempts)
    assert iterations == 389


def test_table2_campaign_seed_1_totals():
    report = run_campaign(
        [load_problem(key, 1) for key in dataset_keys()], workers=1
    )
    assert not report.failures
    swap_s = PerformanceModel().reconfig.solver_swap_seconds()
    device_s = sum(
        (e.compute_ms + e.reconfig_ms) * 1e-3
        + max(0, len(e.solver_sequence) - 1) * swap_s
        for e in report.entries
    )
    assert round(device_s, 9) == 19.802966123
    assert sum(e.iterations for e in report.entries) == 2445


def test_loadtest_seed_1_totals():
    report = run_loadtest(
        LoadSpec(seed=1, duration_s=20.0, rate_rps=600.0, mix="repeat-heavy"),
        ServiceConfig(workers=1),
    )
    doc = report.as_dict(include_responses=False)
    assert doc["fleet"]["device_seconds"] == 42.833628592
    assert doc["requests"]["completed"] == 12021
    assert doc["batches"]["count"] == 10367
    assert doc["batches"]["config_loads"] == 6806
    assert doc["latency_ms"]["overall"]["p50"] == 6.25933
    assert doc["latency_ms"]["overall"]["p99"] == 21.961806
    lookups = doc["cache"]["lookups"]
    assert (lookups["hits"], lookups["misses"]) == (10342, 25)


def test_dse_sweep_seed_1_totals():
    doc = run_dse(demo_space(), seed=1).as_dict()
    points = doc["points"]
    assert len(points) == 64
    total = sum(point["metrics"]["device_seconds"] for point in points)
    assert round(total, 9) == 124.638084856
    assert len(doc["frontier"]) == 7
    assert doc["capacity"]["cheapest"]["fabric_mm2_seconds"] == 0.710674326
